"""The compiled kernels leak neither memory nor references.

``_ckernels.c`` manages reference counts by hand, and whole-run parity
with the pure-Python engine cannot see a missing ``Py_DECREF``: a leaked
object changes no cycle and no stat.  So a dense segmented cell, and an
ideal-IQ cell whose compiled dispatch stage calls back into a Python IQ,
are each run again and again under ``tracemalloc``.  Once the first
runs have warmed every cache, each further run must free everything it
allocated: the traced memory and the reference counts of the
per-instruction classes (every live instance holds a reference to its
class) and of the interned attribute names the C code passes around
stay flat.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.core.iq_base import IQEntry, Operand
from repro.core.segmented import kernels
from repro.core.segmented.chains import Chain
from repro.core.segmented.queue import DispatchPlan
from repro.harness import configs
from repro.isa import execute
from repro.isa.instruction import DynInst
from repro.pipeline import Processor
from repro.pipeline.lsq import LSQEntry
from repro.workloads import build_mgrid

RUNS = 6
INSTRUCTIONS = 2000

#: Traced bytes a warm run may leave behind.  A run of this cell retires
#: 2000 instructions, so leaking one ``DynInst`` per instruction alone
#: would leave about 700 KB per run.
MEMORY_BOUND = 64 * 1024


def _refcounts():
    watched = [DynInst, Operand, Chain, IQEntry, LSQEntry, DispatchPlan]
    watched += [sys.intern(name) for name in ("seq", "inst", "producer")]
    return [sys.getrefcount(obj) for obj in watched]


def test_repeated_dense_cell_leaks_nothing():
    _assert_flat(configs.segmented(512, 128, "comb"))


def test_repeated_python_iq_cell_leaks_nothing():
    """The ideal IQ is Python: the dispatch stage calls back into it."""
    _assert_flat(configs.ideal(512))


def _assert_flat(params):
    kernels.set_backend("compiled")
    try:
        kernels.backend()
    except RuntimeError:
        pytest.skip("compiled kernel backend not built")
    program = build_mgrid()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        samples = []
        for _ in range(RUNS):
            processor = Processor(params, execute(
                program, max_instructions=INSTRUCTIONS))
            assert processor._c_dispatch is not None
            assert getattr(processor.iq, "kernel_backend",
                           "compiled") == "compiled"
            processor.run(max_cycles=1_000_000)
            assert processor.committed == INSTRUCTIONS
            del processor
            gc.collect()
            samples.append((tracemalloc.get_traced_memory()[0],
                            _refcounts()))
    finally:
        if not tracing:
            tracemalloc.stop()
        kernels.set_backend(None)
    memory_warm, refs_warm = samples[1]
    memory_last, refs_last = samples[-1]
    assert abs(memory_last - memory_warm) < MEMORY_BOUND, samples
    assert refs_last == refs_warm, samples
