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
stay flat.  A dense cell cut short by ``max_cycles`` leaves completions
queued as typed event records; dropping it must free those too, and the
event queue's record columns must take part in cycle collection.  The
same cells fed by the compiled replay of a functional record (which
clones every DynInst from a prototype) must free every clone, also when
a cut-off abandons the stream part-read.  A scatter beyond the L2 drives
the compiled memory stage through misses, delayed hits and MSHR
refusals; cut short, it leaves loads in flight and the stage parked as
a waiter in the L1D's MSHRs, and dropping it must free those too.  A
store-heavy scatter over an L2 with two MSHRs runs the LSQ's
bookkeeping and the refill chain below the L1D in C (LSQ entries,
MSHRs and store-write requests made there); cut short, it leaves
refills in flight and line accesses queued.  The
compiled engine runs the segmented IQ's policy on the ``Chain``,
``ChainManager`` and predictor objects: a dense seg-128/64ch cell (chain
allocation and frees, suspends, resumes, predictor training) must stay
flat, and so must one cut short with chains still suspended on misses.
"""

import dataclasses
import gc
import sys
import tracemalloc

import pytest

from repro.common.events import EventQueue, _PyEventQueue
from repro.core.iq_base import IQEntry, Operand
from repro.core.predictors import HitMissPredictor, LeftRightPredictor
from repro.core.segmented import kernels
from repro.core.segmented.chains import Chain, ChainManager
from repro.core.segmented.queue import DispatchPlan
from repro.harness import configs
from repro.isa import execute
from repro.isa.instruction import DynInst
from repro.isa.record import Recording
from repro.memory.cache import _MSHR
from repro.memory.request import MemRequest
from repro.pipeline import Processor
from repro.pipeline.lsq import LSQEntry
from repro.workloads import build_mgrid
from repro.workloads.synthetic import SyntheticProfile, build_synthetic

RUNS = 6
INSTRUCTIONS = 2000

#: Traced bytes a warm run may leave behind.  A run of this cell retires
#: 2000 instructions, so leaking one ``DynInst`` per instruction alone
#: would leave about 700 KB per run.
MEMORY_BOUND = 64 * 1024


def _refcounts(program):
    """Reference counts that any leaked object or reference moves: the
    per-instruction classes, interned names, and the static instructions
    every DynInst (and every replayed clone) points at.

    The interpreter's type attribute cache holds a reference to each
    attribute name it caches, and unrelated lookups evict its entries,
    so a name's count drifts by one from run to run.  Clearing the cache
    first counts only the references the program holds: a leaked
    reference still raises the count."""
    sys._clear_type_cache()
    watched = [DynInst, Operand, Chain, IQEntry, LSQEntry, DispatchPlan,
               ChainManager, HitMissPredictor, LeftRightPredictor, _MSHR,
               MemRequest]
    watched += [sys.intern(name) for name in ("seq", "inst", "producer",
                                              "_peeked", "waiters",
                                              "chain_id", "head",
                                              "_fill_arrived", "fill_level",
                                              "_next_free")]
    return ([sys.getrefcount(obj) for obj in watched]
            + [sum(map(sys.getrefcount, program.instructions))])


def test_repeated_dense_cell_leaks_nothing():
    _assert_flat(configs.segmented(512, 128, "comb"))


def test_repeated_python_iq_cell_leaks_nothing():
    """The ideal IQ is Python: the dispatch stage calls back into it."""
    _assert_flat(configs.ideal(512))


def test_repeated_cut_short_dense_cell_leaks_nothing():
    """Stopped by max_cycles mid-run, with completions still queued."""
    _assert_flat(configs.segmented(512, 128, "comb"), max_cycles=300)


def test_repeated_native_replay_cell_leaks_nothing():
    """Fed by the compiled replay, through the fetch and commit stages."""
    _assert_flat(configs.segmented(512, 128, "comb"), replayed=True)


def test_repeated_cut_short_native_replay_cell_leaks_nothing():
    """A cut-off abandons the compiled replay part-read."""
    _assert_flat(configs.segmented(512, 128, "comb"), max_cycles=300,
                 replayed=True)


#: A scatter over 2 MB, past the 1 MB L2, with no data warming.
_SCATTER = SyntheticProfile(
    name="scatter-2mb", iterations=INSTRUCTIONS // 8, loads_per_iteration=2,
    stores_per_iteration=1, footprint_words=1 << 18,
    access_pattern="scatter", fp_chain_depth=3, fp_parallel_ops=3,
    int_ops=2, seed=11)


def test_repeated_beyond_l2_cell_leaks_nothing():
    """Misses to memory, delayed hits and MSHR refusals through the
    compiled memory stage."""
    stats = _assert_flat(configs.segmented(512, 128, "comb"),
                         program=build_synthetic(_SCATTER)).as_dict()
    assert stats["l1d.delayed_hits"] > 0
    assert stats["l1d.mshr_full_retries"] > 0


def test_repeated_cut_short_beyond_l2_cell_leaks_nothing():
    """Stopped by max_cycles with loads in flight and the memory stage
    parked as a waiter in the L1D's MSHRs."""
    _assert_flat(configs.segmented(512, 128, "comb"), max_cycles=400,
                 program=build_synthetic(_SCATTER))


#: The scatter with two stores an iteration, over an L2 with two MSHRs:
#: store writes (hits, merges, misses and drops) and refills queued for
#: an L2 MSHR.
_STORES = dataclasses.replace(_SCATTER, name="scatter-stores-2mb",
                              stores_per_iteration=2)


def _two_l2_mshrs(params):
    memory = params.memory
    return params.replace(memory=dataclasses.replace(
        memory, l2=dataclasses.replace(memory.l2, mshr_entries=2)))


def test_repeated_store_heavy_refill_cell_leaks_nothing():
    """The LSQ's bookkeeping and the refill chain below the L1D in C:
    LSQ entries, MSHRs and store-write requests are all freed."""
    stats = _assert_flat(_two_l2_mshrs(configs.ideal(256)),
                         program=build_synthetic(_STORES)).as_dict()
    assert stats["lsq.stores"] > 0
    assert stats["l2.mshr_full_retries"] > 0
    assert stats["lsq.dropped_store_writes"] > 0


def test_repeated_cut_short_refill_cell_leaks_nothing():
    """Stopped by max_cycles with refills in flight and line accesses
    queued for an L2 MSHR."""
    _assert_flat(_two_l2_mshrs(configs.ideal(256)), max_cycles=400,
                 program=build_synthetic(_STORES), refilling=True)


def test_repeated_seg128_cell_leaks_nothing():
    """seg-128/64ch beyond the L2: the engine allocates, suspends,
    resumes and frees chains and trains both predictors."""
    stats = _assert_flat(configs.segmented(128, 64, "comb"),
                         program=build_synthetic(_SCATTER)).as_dict()
    assert stats["chains.allocated"] > 0
    assert stats["hmp.actual_misses"] > 0 and stats["lrp.correct"] > 0


def test_repeated_cut_short_suspended_chains_leak_nothing():
    """Stopped by max_cycles with chains suspended on misses: dropping
    the processor frees them."""
    _assert_flat(configs.segmented(128, 64, "comb"), max_cycles=400,
                 program=build_synthetic(_SCATTER), suspended=True)


def _record(program):
    recording = Recording(program)
    for _ in recording.stream(execute(program,
                                      max_instructions=INSTRUCTIONS)):
        pass
    return recording.record


def test_event_records_take_part_in_cycle_collection():
    """A cycle through a typed record's argument is found by the
    collector (EQ_traverse visits the column) and broken by clearing the
    queue (EQ_clear releases it): the tuple cannot clear itself."""
    if EventQueue is _PyEventQueue:
        pytest.skip("compiled event queue not in use")

    class Marker:
        pass

    # Every live Marker holds a reference to its class.  (A weak
    # reference would not do: the collector clears those before it
    # breaks the cycle.)
    live = sys.getrefcount(Marker)
    queue = EventQueue()
    arg = (queue, Marker())
    queue.schedule(5, print, arg)
    assert any(ref is arg for ref in gc.get_referents(queue))
    assert sys.getrefcount(Marker) == live + 1
    del queue, arg
    gc.collect()
    assert sys.getrefcount(Marker) == live


def _parked_loads(processor) -> int:
    """Loads waiting in the L1D's MSHRs with the memory stage as their
    waiter."""
    return sum(type(callback).__name__ == "MemStage"
               for mshr in processor.memory.l1d._mshrs.values()
               for callback, _entry in mshr.waiters)


def _assert_flat(params, max_cycles=1_000_000, replayed=False,
                 program=None, suspended=False, refilling=False):
    """Run the cell RUNS times; returns the first run's stats."""
    kernels.set_backend("compiled")
    try:
        kernels.backend()
    except RuntimeError:
        pytest.skip("compiled kernel backend not built")
    program = program if program is not None else build_mgrid()
    source = _record(program) if replayed else program
    first = None
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        samples = []
        for _ in range(RUNS):
            processor = Processor(params, execute(
                source, max_instructions=INSTRUCTIONS))
            assert processor._c_dispatch is not None
            assert processor._c_commit is not None
            assert processor.frontend._c_fetch is not None
            if replayed:
                assert type(processor.frontend._stream).__name__ == "Replay"
            assert getattr(processor.iq, "kernel_backend",
                           "compiled") == "compiled"
            processor.run(max_cycles=max_cycles)
            if max_cycles < 1_000_000:
                assert 0 < processor.committed < INSTRUCTIONS
                assert not processor.frontend._stream_done
                assert len(processor.events)
                if EventQueue is not _PyEventQueue:
                    assert processor._c_issue is not None
                    assert processor.lsq._c_cycle is not None
                    if program.name == _SCATTER.name:
                        assert _parked_loads(processor)
                if refilling:
                    l2 = processor.memory.l2
                    assert l2._mshrs and l2._mshr_queue
                    assert ((l2._c_stage is not None)
                            == (EventQueue is not _PyEventQueue))
                if suspended:
                    assert any(chain.suspended for chain
                               in processor.iq.chains._active.values())
            else:
                assert processor.committed == INSTRUCTIONS
            if first is None:
                first = processor.stats
            del processor
            gc.collect()
            samples.append((tracemalloc.get_traced_memory()[0],
                            _refcounts(program)))
    finally:
        if not tracing:
            tracemalloc.stop()
        kernels.set_backend(None)
    memory_warm, refs_warm = samples[1]
    memory_last, refs_last = samples[-1]
    assert abs(memory_last - memory_warm) < MEMORY_BOUND, samples
    assert refs_last == refs_warm, samples
    return first
