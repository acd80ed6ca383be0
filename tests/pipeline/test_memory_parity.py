"""The compiled memory system against its Python twin, on the paths no
benchmark cell reaches, and which bodies run.

On the compiled event queue every run binds a ``_ckernels.CacheStage``
to each cache level and to main memory (``owner._c_stage``) and a
``_ckernels.MemStage`` to the LSQ (``lsq._c_stage``): the LSQ's
bookkeeping (``dispatch``, ``address_ready``, store completion,
``commit`` with the store's write), its load issue and the whole refill
chain (``_allocate_mshr`` -> ``_request_line`` -> the next level's
``access_line`` -> ``_fill_arrived`` -> ``_install`` -> waiters ->
``_drain_mshr_queue``) run in C.  The benchmark's cells never forward a
store, miss the I-cache, queue for an L2 MSHR or write back a dirty L2
line, so the runs here do: aliasing kernels under every disambiguation
policy, cold code, an L2 with two MSHRs, dirty L2 victims, store writes
the L1D drops, cut-offs in the middle of refills that then resume, and
two threads.  Each compares ``py`` with ``compiled`` on cycles, the
sorted-key stats JSON, a per-instruction digest, and what the run leaves
in every cache (lines, MSHRs and their waiters, the MSHR queue), on the
links and in the LSQ.
"""

import dataclasses
import inspect
import json
import sys

import pytest

from repro.core.segmented import kernels
from repro.harness import configs
from repro.frontend.fetch import INST_BYTES
from repro.harness.runner import resolve_workload
from repro.isa import execute
from repro.memory import cache as cache_module
from repro.memory.cache import Cache, MainMemory, _MSHR
from repro.memory.link import BandwidthLink
from repro.memory.request import MemRequest
from repro.pipeline import Processor
from repro.pipeline.lsq import LoadStoreQueue, LSQEntry
from tests.pipeline.test_mem_stage import (ALIASING, REGIMES, SCATTER,
                                           requires_stage)

INSTRUCTIONS = 1500


def _small_l2(params):
    """``params`` with an L2 of two MSHRs: line accesses queue for one."""
    memory = params.memory
    return params.replace(memory=dataclasses.replace(
        memory, l2=dataclasses.replace(memory.l2, mshr_entries=2)))


def _dirty_l2(processor, program):
    """Fill the L2 with dirty lines: the data footprint, then lines past
    it, so the scatter evicts dirty victims."""
    l2 = processor.memory.l2
    line = l2.params.line_bytes
    for segment in program.segments.values():
        for addr in range(segment.base, segment.base + segment.bytes, line):
            l2.warm_line(addr, True)
    top = max(seg.base + seg.bytes for seg in program.segments.values())
    for addr in range(top, top + l2.params.size_bytes, line):
        l2.warm_line(addr, True)


def _name(waiter):
    """A waiter (MSHR, queue or producer), named the same on both
    backends."""
    callback, arg = waiter
    name = getattr(callback, "__name__", type(callback).__name__)
    if name in ("MemStage", "_load_filled"):
        return ("load", arg.seq)
    if name == "_store_data_ready":
        return (name, arg.seq)
    if isinstance(arg, MemRequest):
        return (name, arg.addr, arg.is_write)
    owner = getattr(callback, "__self__", None)
    return (name, getattr(owner, "name", None), arg)


def _cache_state(cache):
    return (cache.version,
            list(cache._tags),
            sorted((line, mshr.line_addr, mshr.any_write, mshr.fill_level,
                    [_name(waiter) for waiter in mshr.waiters])
                   for line, mshr in cache._mshrs.items()),
            [(line, is_write, _name(waiter))
             for line, is_write, waiter in cache._mshr_queue])


def _seqs(entries):
    return [entry.seq for entry in entries]


def _by_word(table):
    return sorted((key, _seqs(entries)) for key, entries in table.items())


def _lsq_state(lsq):
    return ([(entry.seq, entry.is_store, entry.addr, entry.word_addr,
              entry.addr_ready_cycle, entry.data_ready_cycle, entry.issued,
              entry.completed, _seqs(entry.waiting_loads),
              getattr(entry.predicted_dep, "seq", None), entry.level)
             for entry in lsq._order],
            sorted(lsq._entries), list(lsq._unknown_stores),
            sorted(lsq._known_stores), _by_word(lsq._stores_by_word),
            _by_word(lsq._true_stores_by_word),
            _by_word(lsq._issued_loads_by_word), _seqs(lsq._candidates),
            [(seq, entry.seq) for seq, entry in lsq._frontier_blocked],
            lsq._refused, lsq._refused_version, lsq.violation_flush_until)


def _state(processor):
    """What a run leaves in the memory system: the instructions in
    flight (with the store-data waiters parked on them), every cache
    level, the links, main memory's queue and the LSQ."""
    memory = processor.memory
    return ([(inst.seq, inst.issued_cycle, inst.completed_cycle,
              inst.mem_level, inst.value_ready_cycle,
              [_name(waiter) for waiter in inst.waiters
               if type(waiter) is tuple and len(waiter) == 2])
             for rob in processor.robs for inst in rob._entries],
            [_cache_state(cache)
             for cache in (memory.l1i, memory.l1d, memory.l2)],
            [cache._link._next_free for cache in (memory.l1d, memory.l2)],
            _lsq_state(processor.lsq),
            len(processor.events), processor.events.next_event_cycle())


def _stat_bytes(processor) -> str:
    return json.dumps(processor.stats.as_dict(), sort_keys=True)


def _simulate(params, workload, backend, *, warm_code=True, prepare=None,
              cuts=(), streams=1, instructions=INSTRUCTIONS):
    """One run under a forced backend, cut at each of ``cuts`` and
    resumed: (processor, digest, [state at each cut])."""
    spec = (resolve_workload(workload) if isinstance(workload, str)
            else workload)
    program = spec.build(1)
    kernels.set_backend(backend)
    try:
        stream = [execute(program, max_instructions=instructions)
                  for _ in range(streams)]
        processor = Processor(params, stream if streams > 1 else stream[0])
        for thread in range(streams):
            if warm_code:
                processor.warm_code(program, thread)
            if spec.warm_data:
                processor.warm_data(program, thread)
        if prepare is not None:
            prepare(processor, program)
        digest = []
        processor.commit_listeners.append(
            lambda inst, now: digest.append((
                inst.seq, inst.issued_cycle, inst.completed_cycle,
                inst.mem_level, inst.committed_cycle)))
        states = []
        for cut in cuts:
            processor.run(max_cycles=cut)
            assert processor.cycle == cut
            states.append((processor.cycle, _stat_bytes(processor),
                           _state(processor)))
        processor.run(max_cycles=1_000_000)
    finally:
        kernels.set_backend(None)
    return processor, digest, states


def _assert_same(params, workload, **options):
    py_proc, py_digest, py_states = _simulate(params, workload, "py",
                                              **options)
    c_proc, c_digest, c_states = _simulate(params, workload, "compiled",
                                           **options)
    assert py_proc.lsq._c_stage is None and py_proc.memory.l2._c_stage is None
    assert c_proc.lsq._c_stage is not None
    assert all(level._c_stage is not None for level in (
        c_proc.memory.l1i, c_proc.memory.l1d, c_proc.memory.l2,
        c_proc.memory.main_memory))
    assert c_proc.committed == py_proc.committed > 0
    assert c_proc.cycle == py_proc.cycle
    assert _stat_bytes(c_proc) == _stat_bytes(py_proc)
    assert c_digest == py_digest
    assert c_states == py_states
    assert _state(c_proc) == _state(py_proc)
    return c_proc.stats.as_dict()


# --------------------------------------------------------------- parity --
@requires_stage
@pytest.mark.parametrize("policy", ["conservative", "oracle", "store_sets"])
@pytest.mark.parametrize("workload", sorted(ALIASING))
def test_aliasing_policy_parity(policy, workload):
    """Forwards, conflict waits, the store frontier and (store sets) the
    violation check, on cold code."""
    params = configs.segmented(256, 64, "comb").replace(
        mem_dep_policy=policy)
    stats = _assert_same(params, ALIASING[workload], warm_code=False)
    assert stats["lsq.forwards"] > 50
    assert stats["l1i.misses"] > 0
    if workload == "late-store" and policy == "store_sets":
        assert stats["memdep.violations"] > 0


@requires_stage
@pytest.mark.parametrize("workload", ["gcc", "vortex"])
def test_cold_code_parity(workload):
    """No warm_code: fetch misses the I-cache and its requests refill
    through the L2."""
    stats = _assert_same(configs.segmented(512, 128, "comb"), workload,
                         warm_code=False)
    assert stats["l1i.misses"] > 0


@requires_stage
def test_l2_mshr_queue_parity():
    """Two L2 MSHRs: line accesses queue and drain as lines land."""
    stats = _assert_same(_small_l2(configs.segmented(256, 128, "comb")),
                         SCATTER, warm_code=False)
    assert stats["l2.mshr_full_retries"] > 0


@requires_stage
def test_dirty_l2_victim_parity():
    """Dirty L2 lines evicted by the scatter are written back over the
    memory link."""
    stats = _assert_same(configs.segmented(256, 128, "comb"), SCATTER,
                         prepare=_dirty_l2)
    assert stats["l2.writebacks"] > 0


@requires_stage
def test_dropped_store_write_parity():
    """The scatter beyond the L2 on the ideal queue: the L1D refuses
    store writes, which are counted and dropped."""
    stats = _assert_same(configs.ideal(256), SCATTER)
    assert stats["lsq.dropped_store_writes"] > 0


@requires_stage
@pytest.mark.parametrize("cuts", [(150,), (400, 900), (120, 121, 600)])
def test_cut_off_mid_refill_parity(cuts):
    """max_cycles cut-offs in the middle of refills leave the same lines,
    MSHRs, queued accesses, link reservations and LSQ, and the runs
    resume to the same end."""
    _assert_same(_small_l2(configs.segmented(512, 128, "comb")), SCATTER,
                 warm_code=False, cuts=cuts)


@requires_stage
@pytest.mark.parametrize("workload", ["swim", SCATTER])
def test_two_thread_parity(workload):
    """Two threads share the LSQ (keyed by thread and word) and the
    caches."""
    _assert_same(configs.segmented(256, 64, "comb"), workload, streams=2)


@requires_stage
@pytest.mark.parametrize("regime", ["l1", "mem-chase"])
def test_held_out_seed_parity(regime):
    """The benchmark's regimes at a held-out seed, cold code and small
    L2 MSHRs."""
    _assert_same(_small_l2(configs.segmented(256, 128, "comb")),
                 REGIMES[7][regime], warm_code=False)


# ----------------------------------------------------------------- path --
#: Functions whose whole body the compiled stages run.
MOVED = {
    "Cache._find": Cache._find, "Cache._find_no_lru": Cache._find_no_lru,
    "Cache._insert": Cache._insert,
    "Cache.rejects": Cache.rejects,
    "Cache._allocate_mshr": Cache._allocate_mshr,
    "Cache._request_line": Cache._request_line,
    "Cache._install": Cache._install,
    "Cache._drain_mshr_queue": Cache._drain_mshr_queue,
    "Cache._return_line": Cache._return_line,
    "Cache._request_hit": Cache._request_hit,
    "Cache._request_filled": Cache._request_filled,
    "Cache._request_merged": Cache._request_merged,
    "_answer": cache_module._answer,
    "MainMemory._return_line": MainMemory._return_line,
    "BandwidthLink.request": BandwidthLink.request,
    "_MSHR.__init__": _MSHR.__init__,
    "MemRequest.complete": MemRequest.complete,
    "LSQEntry.__init__": LSQEntry.__init__,
    "LoadStoreQueue._true_key": LoadStoreQueue._true_key,
    "LoadStoreQueue._timing_key": LoadStoreQueue._timing_key,
    "LoadStoreQueue.store_frontier": LoadStoreQueue.store_frontier.fget,
    "LoadStoreQueue._advance_frontier": LoadStoreQueue._advance_frontier,
    "LoadStoreQueue._store_data_ready": LoadStoreQueue._store_data_ready,
    "LoadStoreQueue._maybe_complete_store":
        LoadStoreQueue._maybe_complete_store,
    "LoadStoreQueue._mark_store_complete":
        LoadStoreQueue._mark_store_complete,
    "LoadStoreQueue._issue_to_cache": LoadStoreQueue._issue_to_cache,
    "LoadStoreQueue._load_done": LoadStoreQueue._load_done,
}

#: Entry points that stay Python and hand their bodies to a stage.
ENTRIES = {
    "Cache.touch": Cache.touch, "Cache.access": Cache.access,
    "Cache.access_line": Cache.access_line,
    "Cache._fill_arrived": Cache._fill_arrived,
    "Cache.warm_line": Cache.warm_line,
    "MainMemory.access_line": MainMemory.access_line,
    "LoadStoreQueue.dispatch": LoadStoreQueue.dispatch,
    "LoadStoreQueue.address_ready": LoadStoreQueue.address_ready,
    "LoadStoreQueue.commit": LoadStoreQueue.commit,
}


def _body_line(function) -> int:
    """The first line of ``function``'s Python body: the line after its
    hand-off to the stage."""
    lines, first = inspect.getsourcelines(function)
    start = next(i for i, line in enumerate(lines)
                 if "stage = self._c_stage" in line)
    end = next(i for i in range(start, len(lines))
               if lines[i].strip().startswith("return"))
    return first + end + 1


def _path_tracer():
    """A trace function counting calls of MOVED and runs of the ENTRIES'
    Python bodies."""
    calls = dict.fromkeys(list(MOVED) + list(ENTRIES), 0)
    moved = {function.__code__: name for name, function in MOVED.items()}
    entries = {function.__code__: (name, _body_line(function))
               for name, function in ENTRIES.items()}

    def tracer(frame, event, arg):
        name = moved.get(frame.f_code)
        if name is not None:
            calls[name] += 1
            return None
        entry = entries.get(frame.f_code)
        if entry is None:
            return None
        name, body = entry

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == body:
                calls[name] += 1
            return local
        return local

    return calls, tracer


def _code_in_l2(processor, program):
    """Cold L1I over a dirty L2 that holds the code: fetch misses hit
    the L2."""
    _dirty_l2(processor, program)
    line = processor.memory.l2.params.line_bytes
    for addr in range(0, len(program.instructions) * INST_BYTES, line):
        processor.memory.l2.warm_line(addr)


def _traced_runs(backend):
    """Two runs under the path tracer: the scatter beyond a dirty L2 with
    two MSHRs (refills, queueing, writebacks, dropped and merged store
    writes) and the L1D-resident kernel (store writes that hit)."""
    calls, tracer = _path_tracer()
    params = _small_l2(configs.ideal(256)).replace(mem_dep_policy="oracle")
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        runs = [_simulate(params, SCATTER, backend, warm_code=False,
                          prepare=_code_in_l2, instructions=800)[0],
                _simulate(params, REGIMES[0]["l1"], backend,
                          instructions=800)[0]]
    finally:
        sys.settrace(previous)
    assert all(processor.committed for processor in runs)
    return runs, calls


@requires_stage
def test_compiled_runs_call_no_moved_python_body():
    runs, calls = _traced_runs("compiled")
    assert all(processor.lsq._c_stage is not None for processor in runs)
    assert runs[0].stats.get("l2.mshr_full_retries") > 0
    assert not any(calls.values()), \
        {name: count for name, count in calls.items() if count}


def test_py_backend_calls_every_python_body():
    runs, calls = _traced_runs("py")
    assert all(processor.lsq._c_stage is None for processor in runs)
    assert all(calls.values()), \
        [name for name, count in calls.items() if not count]
