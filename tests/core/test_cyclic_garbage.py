"""A finished cell leaves little for the cyclic garbage collector.

The machine's fixed-size tables (each cache's tag store, the BTB, the
branch predictor's pattern tables and local histories) are flat typed
arrays, one object each, which the collector never walks.  Built as a
list per set and per resident line, they left about 8,000 unreachable
objects per dense cell, and every ``gc.collect()`` between cells paid
for walking them.  A warm seg-512/128ch cell through ``api.run`` must
now leave at most :data:`GARBAGE_BOUND` objects to the collector.  The
cell runs on the compiled kernel backend, as the benchmark's cells do:
the pure-Python reference engine keeps the segmented IQ's columns in
lists of its own (about 1,800 more per cell).
"""

import gc

import pytest

from repro import api
from repro.core.segmented import kernels
from repro.harness import configs

#: Unreachable objects a warm dense cell may leave: its processor's
#: cycles (stages, bound methods, in-flight instructions), not its
#: tables.
GARBAGE_BOUND = 500


def _run_cell():
    return api.run(configs.segmented(512, 128, "comb"), "ammp",
                   max_instructions=8000)


def _garbage() -> list:
    """The objects the collector finds unreachable after one warm cell,
    saved rather than freed."""
    flags = gc.get_debug()
    kernels.set_backend("compiled")
    try:
        try:
            kernels.backend()
        except RuntimeError:
            pytest.skip("compiled kernel backend not built")
        _run_cell()                     # warm: records the stream
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        result = _run_cell()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        kernels.set_backend(None)
    assert result.instructions == 8000
    return garbage


def test_warm_dense_cell_leaves_little_cyclic_garbage():
    garbage = _garbage()
    lists = sum(type(obj) is list for obj in garbage)
    assert len(garbage) <= GARBAGE_BOUND, (len(garbage), lists)
