"""The compiled stages' hold on the machine's flat tables.

A ``_ckernels.CacheStage`` works on its cache's ``_tags`` array, and the
``_ckernels.FetchStage`` on the BTB's ``_pcs`` array and the branch
predictor's pattern tables and local histories, through raw pointers
into their buffers.  Each stage holds a buffer export of every table it
uses for as long as it is bound, so no table can be resized (and its
memory moved) under it: ``append`` raises ``BufferError``.  Dropping
the processor releases every export (the collector clears the stages),
after which the tables resize again and nothing else holds them.  A
stage refuses a table of the wrong type or size.
"""

import gc
import sys
from array import array

import pytest

from repro.common.events import EventQueue, _PyEventQueue
from repro.core.segmented import kernels
from repro.harness import configs
from repro.isa import execute
from repro.memory.request import LEVEL_MEM
from repro.memory.cache import _MSHR
from repro.pipeline import Processor
from repro.workloads import build_mgrid


@pytest.fixture
def module():
    kernels.set_backend("compiled")
    try:
        found = kernels.compiled_module()
    except RuntimeError:
        found = None
    finally:
        kernels.set_backend(None)
    if found is None:
        pytest.skip("compiled kernel backend not built")
    if EventQueue is _PyEventQueue:
        pytest.skip("compiled event queue not in use")
    return found


def _processor(max_instructions=500):
    program = build_mgrid()
    kernels.set_backend("compiled")
    try:
        processor = Processor(configs.segmented(512, 128, "comb"),
                              execute(program,
                                      max_instructions=max_instructions))
    finally:
        kernels.set_backend(None)
    processor.warm_code(program)
    processor.warm_data(program)
    return processor


def _tables(processor):
    """Every flat table a compiled stage holds: (name, table)."""
    memory = processor.memory
    bpred = processor.frontend.bpred
    return [("l1i._tags", memory.l1i._tags), ("l1d._tags", memory.l1d._tags),
            ("l2._tags", memory.l2._tags),
            ("btb._pcs", processor.frontend.btb._pcs),
            ("bpred._global_pht", bpred._global_pht),
            ("bpred._local_pht", bpred._local_pht),
            ("bpred._choice_pht", bpred._choice_pht),
            ("bpred._local_histories", bpred._local_histories)]


def test_bound_tables_cannot_be_resized(module):
    processor = _processor()
    assert processor.memory.l2._c_stage is not None
    assert processor.frontend._c_fetch is not None
    for name, table in _tables(processor):
        with pytest.raises(BufferError):
            table.append(0)
        assert len(table) > 0, name
    processor.run()
    assert processor.committed == 500
    for _name, table in _tables(processor):
        with pytest.raises(BufferError):
            table.append(0)


def test_dropping_the_processor_releases_every_export(module):
    """The stages sit in reference cycles with their owners, so the
    collector frees them; clearing a stage releases its exports."""
    processor = _processor()
    processor.run(max_cycles=200)
    tables = _tables(processor)
    # The L2's tag store: 1 MB of 64-byte lines, 8 bytes a line.
    assert len(tables[2][1]) * tables[2][1].itemsize == 128 * 1024
    del processor
    gc.collect()
    for name, table in tables:
        table.append(0)                 # no export left
        assert sys.getrefcount(table) == 3, name    # tables, table, arg


def test_rebinding_a_stage_releases_its_earlier_export(module):
    """A stage bound twice holds one export: once it and the processor's
    own stage are collected (each holds its own event methods, a cycle),
    the table resizes again."""
    processor = _processor()
    l2 = processor.memory.l2
    stage = module.CacheStage(l2, l2.level_label, l2.level_label, _MSHR)
    stage.__init__(l2, l2.level_label, l2.level_label, _MSHR)
    del stage
    l2._c_stage = None
    gc.collect()
    l2._tags.append(0)


def test_stages_refuse_tables_of_the_wrong_shape(module):
    processor = _processor()
    l1d = processor.memory.l1d
    size = len(l1d._tags)
    for wrong in (array("q", [-1]) * (size - 1), array("i", [-1]) * size,
                  bytearray(8 * size), [-1] * size):
        l1d._tags = wrong
        with pytest.raises(TypeError):
            module.CacheStage(l1d, l1d.level_label, "delayed", _MSHR)
    frontend = processor.frontend
    frontend.btb._pcs = array("q", [-1]) * 7
    with pytest.raises(TypeError):
        _fetch_stage(module, processor)


def _fetch_stage(module, processor):
    from repro.isa.opcodes import OpClass
    frontend = processor.frontend
    icache = processor.memory.l1i
    return module.FetchStage(
        8, 8, 15, 64, 4, 6, frontend.stat_icache_stall_cycles,
        frontend.stat_branch_stall_cycles, frontend.stat_buffer_full_cycles,
        frontend.stat_fetched, frontend.stat_fetch_cycles,
        icache.stat_accesses, icache.stat_hits, frontend.btb,
        frontend.bpred, OpClass.JUMP)


def test_main_memory_stage_holds_no_table(module):
    processor = _processor()
    memory = processor.memory.main_memory
    stage = module.CacheStage(memory, LEVEL_MEM)
    with pytest.raises(RuntimeError):
        stage.touch(0)
