"""The compiled memory stage against its Python twin, and which runs.

``LoadStoreQueue.cycle`` is the memory stage: load issue with the
store-conflict check and forwarding, the L1D's core-side load access
(``_issue_to_cache``) and, through typed event records and MSHR
waiters, each load's completion (``_load_filled``, ``_load_done``).  On
the compiled event queue every run, traced, clustered, multi-thread and
invariant-checked ones included, binds its C twin
(``_ckernels.MemStage``) as ``lsq._c_cycle``, and ``cycle`` hands it
each cycle.  The runs here compare ``py`` with ``compiled`` on cycles,
the sorted-key stats JSON and a per-instruction digest that includes
where each load was satisfied (``mem_level``) and when it completed; a
run cut short by ``max_cycles`` also compares the loads in flight, the
L1D's MSHRs and the loads parked in them.
"""

import functools
import inspect
import json
import random
import sys

import pytest

from repro.common.events import EventQueue
from repro.core.segmented import kernels
from repro.harness import configs
from repro.harness.runner import resolve_workload
from repro.isa import execute
from repro.obs import RingBufferTracer, dump_jsonl
from repro.pipeline import Processor
from repro.pipeline.lsq import LoadStoreQueue
from repro.workloads import WORKLOADS, WorkloadSpec
from repro.workloads.synthetic import SyntheticProfile, build_synthetic
from tests.pipeline.test_memdep import (aliasing_kernel,
                                        late_store_address_kernel)

INSTRUCTIONS = 1500


def _compiled_stage_available() -> bool:
    """The extension is built and the processor's event queue is the
    compiled one (``REPRO_KERNELS=py`` at process start binds the Python
    queue for the whole process, and the stage stays unbound)."""
    kernels.set_backend("compiled")
    try:
        kernels.backend()
    except RuntimeError:
        return False
    finally:
        kernels.set_backend(None)
    from repro.core.segmented import _ckernels
    return EventQueue is _ckernels.EventQueue


requires_stage = pytest.mark.skipif(
    not _compiled_stage_available(),
    reason="compiled kernel backend not built "
           "(python -m repro.core.segmented.build) or REPRO_KERNELS=py")


def _synthetic(profile: SyntheticProfile, warm_data: bool) -> WorkloadSpec:
    build = functools.lru_cache(maxsize=None)(
        lambda scale=1: build_synthetic(profile))
    return WorkloadSpec(profile.name, build,
                        default_instructions=INSTRUCTIONS, is_fp=True,
                        warm_data=warm_data,
                        description=f"synthetic {profile.access_pattern}")


def _regimes(seed: int):
    """The four working-set regimes of the benchmark's ``synthetic_mem``
    workload (L1D-resident, L2-resident and two beyond the 1 MB L2),
    drawn from ``seed`` the same way, sized for INSTRUCTIONS."""
    rng = random.Random(seed)
    table = (("l1", 1 << 12, "scatter", 2, 4, 0.3, False),
             ("l2", 1 << 15, "stream", 2, 6, 0.1, True),
             ("mem-chase", 1 << 18, "chase", 1, 4, 0.2, False),
             ("mem-scatter", 1 << 18, "scatter", 2, 3, 0.0, False))
    return {regime: _synthetic(SyntheticProfile(
        name=f"syn-{regime}-s{seed}", iterations=INSTRUCTIONS // 4 + 1,
        loads_per_iteration=loads, stores_per_iteration=1,
        footprint_words=words, access_pattern=pattern,
        fp_chain_depth=chain, fp_parallel_ops=3, int_ops=2,
        hard_branch_bias=bias, seed=rng.randrange(1 << 30)), warm)
        for regime, words, pattern, loads, chain, bias, warm in table}


REGIMES = {seed: _regimes(seed) for seed in (0, 7)}
#: Every iteration stores to a slot and loads it straight back, and a
#: store whose address comes late from a divide: forwards, conflict
#: waits and (store sets) memory-order violations.
ALIASING = {name: WorkloadSpec(name, lambda scale=1, build=build: build(),
                               default_instructions=INSTRUCTIONS,
                               is_fp=False, warm_data=False,
                               description=name)
            for name, build in (("alias", aliasing_kernel),
                                ("late-store", late_store_address_kernel))}
#: Beyond the L2: misses to memory, delayed hits and MSHR refusals.
SCATTER = REGIMES[0]["mem-scatter"]


def _stat_bytes(processor) -> str:
    """A run's stats as sorted-key JSON: byte equality also catches a
    value-type difference (``117`` against ``117.0``) that ``==``
    forgives."""
    return json.dumps(processor.stats.as_dict(), sort_keys=True)


def _waiter(waiter):
    """An MSHR waiter, named the same on both backends: a parked load
    (the compiled stage or the LSQ's ``_load_filled``) by its seq."""
    callback, arg = waiter
    if (type(callback).__name__ == "MemStage"
            or getattr(callback, "__name__", "") == "_load_filled"):
        return ("load", arg.seq)
    return (getattr(callback, "__name__", type(callback).__name__),
            getattr(arg, "addr", arg))


def _memory_state(processor):
    """What a run leaves in the memory path: the instructions in flight,
    the LSQ's entries, candidates and refused prefix, and the L1D's
    lines, MSHRs and parked loads."""
    lsq = processor.lsq
    l1d = processor.memory.l1d
    return ([(inst.seq, inst.issued_cycle, inst.completed_cycle,
              inst.mem_level, inst.value_ready_cycle)
             for rob in processor.robs for inst in rob._entries],
            [(entry.seq, entry.issued, entry.completed, entry.level)
             for entry in lsq._order],
            [entry.seq for entry in lsq._candidates],
            lsq._refused, lsq._refused_version, l1d.version,
            list(l1d._tags),
            sorted((line, mshr.any_write,
                    [_waiter(waiter) for waiter in mshr.waiters])
                   for line, mshr in l1d._mshrs.items()),
            len(processor.events), processor.events.next_event_cycle())


def _simulate(params, workload, backend, *, tracer=None, event_driven=True,
              max_cycles=1_000_000, streams=1):
    """One run under a forced backend: (processor, digest), the digest
    holding each retired instruction's timestamps and ``mem_level``."""
    spec = (resolve_workload(workload) if isinstance(workload, str)
            else workload)
    program = spec.build(1)
    kernels.set_backend(backend)
    try:
        stream = [execute(program, max_instructions=INSTRUCTIONS)
                  for _ in range(streams)]
        processor = Processor(params.replace(event_driven=event_driven),
                              stream if streams > 1 else stream[0],
                              tracer=tracer)
        for thread in range(streams):
            processor.warm_code(program, thread)
            if spec.warm_data:
                processor.warm_data(program, thread)
        digest = []
        processor.commit_listeners.append(
            lambda inst, now: digest.append((
                inst.seq, inst.issued_cycle, inst.completed_cycle,
                inst.mem_level, inst.committed_cycle)))
        processor.run(max_cycles=max_cycles)
    finally:
        kernels.set_backend(None)
    return processor, digest


def _assert_same(params, workload, **options):
    py_proc, py_digest = _simulate(params, workload, "py", **options)
    c_proc, c_digest = _simulate(params, workload, "compiled", **options)
    assert py_proc.lsq._c_cycle is None
    assert c_proc.lsq._c_cycle is not None
    assert c_proc.committed == py_proc.committed > 0
    assert c_proc.cycle == py_proc.cycle
    assert _stat_bytes(c_proc) == _stat_bytes(py_proc)
    assert c_digest == py_digest
    assert _memory_state(c_proc) == _memory_state(py_proc)
    return c_proc


# --------------------------------------------------------------- parity --
@requires_stage
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_dense_segmented_stage_parity(workload):
    """seg-512/128ch comb, the dense design point, on every analog."""
    processor = _assert_same(configs.segmented(512, 128, "comb"), workload)
    assert processor.committed == INSTRUCTIONS


@requires_stage
@pytest.mark.parametrize("kind", sorted(configs.DESIGNS))
def test_every_model_stage_parity(kind):
    """Every IQ design hears of each miss and completion from the stage
    (notify_load_miss, notify_load_complete), beyond the L2."""
    processor = _assert_same(configs.DESIGNS[kind].conformance_config(),
                             SCATTER)
    stats = processor.stats.as_dict()
    assert stats["l1d.misses"] > 50 and stats["l1d.delayed_hits"] > 0


@requires_stage
@pytest.mark.parametrize("seed", sorted(REGIMES))
@pytest.mark.parametrize("regime", ["l1", "l2", "mem-chase", "mem-scatter"])
def test_synthetic_regime_stage_parity(regime, seed):
    """The benchmark's four working-set regimes, at seed 0 and at a
    held-out seed."""
    processor = _assert_same(configs.segmented(256, 128, "comb"),
                             REGIMES[seed][regime])
    stats = processor.stats.as_dict()
    if regime.startswith("mem"):
        assert stats["l2.misses"] > 20
    if regime == "mem-scatter":
        assert stats["l1d.mshr_full_retries"] > 0


@requires_stage
@pytest.mark.parametrize("policy", ["conservative", "oracle", "store_sets"])
@pytest.mark.parametrize("workload", ["alias", "late-store", "ammp"])
def test_memory_policy_stage_parity(policy, workload):
    """Each disambiguation policy: the conflict check, forwarding and
    (store sets) the issued-load map the violation check reads."""
    params = configs.segmented(256, 64, "comb").replace(
        mem_dep_policy=policy)
    processor = _assert_same(params, ALIASING.get(workload, workload))
    stats = processor.stats.as_dict()
    if workload != "ammp":
        assert stats["lsq.forwards"] > 50
    if workload == "late-store" and policy == "store_sets":
        assert stats["memdep.violations"] > 0


@requires_stage
@pytest.mark.parametrize("workload", ["equake", SCATTER])
def test_traced_stage_parity(workload):
    """A traced run binds the stage, and its JSONL trace is byte for
    byte the py backend's."""
    traces = []
    for backend in ("py", "compiled"):
        tracer = RingBufferTracer(capacity=1 << 20)
        processor, _digest = _simulate(configs.segmented(512, 128, "comb"),
                                       workload, backend, tracer=tracer)
        assert (processor.lsq._c_cycle is None) == (backend == "py")
        traces.append((processor.cycle, _stat_bytes(processor),
                       dump_jsonl(tracer.events)))
    assert traces[0][2]
    assert traces[1] == traces[0]


@requires_stage
def test_two_thread_stage_parity():
    """Two threads share the LSQ, keyed by (thread, word)."""
    processor = _assert_same(configs.segmented(256, 64, "comb"), "swim",
                             streams=2)
    assert processor.num_threads == 2


@requires_stage
def test_clustered_stage_parity():
    """Two clusters: a load takes the cache port of any cluster."""
    params = configs.segmented(512, 128, "comb").replace(clusters=2)
    processor = _assert_same(params, SCATTER)
    assert processor._c_dispatch is None


@requires_stage
def test_invariant_checked_stage_parity():
    processor = _assert_same(
        configs.segmented(512, 128, "comb").replace(check_invariants=True),
        SCATTER)
    assert processor.invariant_checker is not None


@requires_stage
@pytest.mark.parametrize("max_cycles", [150, 400, 900])
def test_cut_off_mid_miss_stage_parity(max_cycles):
    """A max_cycles cut-off in the middle of misses to memory leaves the
    same loads in flight and the same loads parked in the L1D's MSHRs
    (compared by _assert_same), with completions still queued."""
    processor = _assert_same(configs.segmented(512, 128, "comb"), SCATTER,
                             max_cycles=max_cycles)
    assert processor.cycle == max_cycles
    parked = [waiter for mshr in processor.memory.l1d._mshrs.values()
              for waiter in mshr.waiters]
    assert any(type(callback).__name__ == "MemStage"
               for callback, _entry in parked)
    assert len(processor.events)


@requires_stage
@pytest.mark.parametrize("workload", ["equake", SCATTER])
def test_event_driven_matches_plain_loop_with_stage(workload):
    """Skipping quiescent cycles changes nothing with the stage on."""
    params = configs.segmented(512, 128, "comb")
    skip, skip_digest = _simulate(params, workload, "compiled")
    plain, plain_digest = _simulate(params, workload, "compiled",
                                    event_driven=False)
    for processor in (skip, plain):
        assert processor.lsq._c_cycle is not None
    assert skip.stats.get("skip.cycles_skipped") > 0
    assert skip.cycle == plain.cycle
    strip = lambda stats: {key: value for key, value in stats.items()
                           if not key.startswith("skip.")}
    assert strip(skip.stats.as_dict()) == strip(plain.stats.as_dict())
    assert skip_digest == plain_digest


# ----------------------------------------------------------------- path --
def _python_bodies():
    """A line tracer counting the runs of the Python body of
    LoadStoreQueue.cycle (its lines past the hand-off) and of
    _issue_to_cache."""
    calls = {"cycle": 0, "issue_to_cache": 0}
    cycle_code = LoadStoreQueue.cycle.__code__
    issue_code = LoadStoreQueue._issue_to_cache.__code__
    lines, first = inspect.getsourcelines(LoadStoreQueue.cycle)
    body = first + next(i for i, line in enumerate(lines)
                        if "self.stat_occupancy.sample" in line)

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == body:
            calls["cycle"] += 1
        return local

    def tracer(frame, event, arg):
        if frame.f_code is issue_code:
            calls["issue_to_cache"] += 1
            return None
        return local if frame.f_code is cycle_code else None

    return calls, tracer


def _traced(line_tracer, *args, **kwargs):
    """_simulate with ``line_tracer`` installed as the trace function."""
    previous = sys.gettrace()
    sys.settrace(line_tracer)
    try:
        return _simulate(*args, **kwargs)
    finally:
        sys.settrace(previous)


_RUNS = {
    "plain": ({}, {}),
    "traced": ({}, {"tracer": RingBufferTracer()}),
    "clustered": ({"clusters": 2}, {}),
    "multi_thread": ({}, {"streams": 2}),
    "invariant_checked": ({"check_invariants": True}, {}),
}


@requires_stage
@pytest.mark.parametrize("case", sorted(_RUNS))
def test_compiled_runs_never_run_the_python_body(case):
    calls, tracer = _python_bodies()
    overrides, options = _RUNS[case]
    params = configs.segmented(512, 128, "comb").replace(**overrides)
    processor, digest = _traced(tracer, params, "equake", "compiled",
                                **options)
    assert processor.lsq._c_cycle is not None
    assert digest and processor.stats.get("lsq.loads") > 0
    assert calls == {"cycle": 0, "issue_to_cache": 0}


def test_py_backend_runs_the_python_body():
    calls, tracer = _python_bodies()
    processor, digest = _traced(tracer, configs.segmented(512, 128, "comb"),
                                "equake", "py")
    assert processor.lsq._c_cycle is None
    assert digest
    assert calls["cycle"] and calls["issue_to_cache"]
