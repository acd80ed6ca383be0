"""The compiled issue stage against its Python twins, and which runs.

``Processor._issue`` and ``Processor._complete`` are the Python issue
stage and writeback; on the compiled kernel backend an unclustered,
untraced run with no invariant checker runs their C twin
(``_ckernels.IssueStage``) instead: one call per cycle issues, wakes the
waiting operands (``DynInst.set_value_ready``) and schedules each
completion as a typed event record that the compiled ``EventQueue``
fires with no Python frame.  The backend parity suites in
``tests/core/test_kernels.py`` pass a tracer, which keeps those runs on
the Python methods, so the runs here carry no tracer: they compare
``py`` with ``compiled`` on cycles, every stat and a per-instruction
digest of each retired instruction's pipeline timestamps, recorded
through ``commit_listeners``.
"""

import json

import pytest

from repro.common.events import EventQueue
from repro.core.segmented import kernels
from repro.harness import configs
from repro.harness.runner import resolve_workload
from repro.isa import execute
from repro.obs import RingBufferTracer
from repro.pipeline import Processor
from repro.workloads import WORKLOADS, WorkloadSpec
from repro.workloads.synthetic import SyntheticProfile, build_synthetic

INSTRUCTIONS = 1500


def _compiled_backend_built() -> bool:
    kernels.set_backend("compiled")
    try:
        kernels.backend()
    except RuntimeError:
        return False
    finally:
        kernels.set_backend(None)
    return True


def _compiled_stage_available() -> bool:
    """The stage exists and the processor's event queue is the compiled
    one (``REPRO_KERNELS=py`` at process start binds the Python queue for
    the whole process, and the stage stays unbound)."""
    if not _compiled_backend_built():
        return False
    from repro.core.segmented import _ckernels
    return EventQueue is _ckernels.EventQueue


requires_stage = pytest.mark.skipif(
    not _compiled_stage_available(),
    reason="compiled kernel backend not built "
           "(python -m repro.core.segmented.build) or REPRO_KERNELS=py")

#: A pointer-free scatter over 2 MB, past the 1 MB L2: most loads miss
#: to memory, so the issue stage's effective-address records (and the
#: LSQ behind them) carry the run.
_SCATTER_2MB = SyntheticProfile(
    name="scatter-2mb", iterations=200, loads_per_iteration=2,
    stores_per_iteration=1, footprint_words=1 << 18,
    access_pattern="scatter", fp_chain_depth=3, fp_parallel_ops=3,
    int_ops=2, seed=11)

SCATTER = WorkloadSpec(_SCATTER_2MB.name,
                       lambda scale=1: build_synthetic(_SCATTER_2MB),
                       default_instructions=INSTRUCTIONS, is_fp=True,
                       warm_data=False, description="scatter over 2 MB")


def _stat_bytes(processor) -> str:
    """A run's stats as sorted-key JSON: byte equality also catches a
    value-type difference (``117`` against ``117.0``) that ``==``
    forgives."""
    return json.dumps(processor.stats.as_dict(), sort_keys=True)


def _simulate(params, workload, backend, *, tracer=None,
              event_driven=True):
    """One untraced run (unless ``tracer``) under a forced backend;
    returns (processor, digest)."""
    spec = resolve_workload(workload)
    program = spec.build(1)
    kernels.set_backend(backend)
    try:
        processor = Processor(
            params.replace(event_driven=event_driven),
            execute(program, max_instructions=INSTRUCTIONS), tracer=tracer)
        processor.warm_code(program)
        if spec.warm_data:
            processor.warm_data(program)
        digest = []
        processor.commit_listeners.append(
            lambda inst, now: digest.append((
                inst.seq, inst.fetched_cycle, inst.dispatched_cycle,
                inst.issued_cycle, inst.completed_cycle,
                inst.committed_cycle)))
        processor.run(max_cycles=1_000_000)
    finally:
        kernels.set_backend(None)
    return processor, digest


def _assert_same(params, workload):
    py_proc, py_digest = _simulate(params, workload, "py")
    c_proc, c_digest = _simulate(params, workload, "compiled")
    assert py_proc._c_issue is None
    assert c_proc._c_issue is not None
    assert c_proc.committed == py_proc.committed > 0
    assert c_proc.cycle == py_proc.cycle
    assert _stat_bytes(c_proc) == _stat_bytes(py_proc)
    assert c_digest == py_digest
    return c_proc


# --------------------------------------------------------------- parity --
@requires_stage
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_dense_segmented_stage_parity(workload):
    """seg-512/128ch comb, the dense design point, on every analog."""
    _assert_same(configs.segmented(512, 128, "comb"), workload)


@requires_stage
@pytest.mark.parametrize("kind", sorted(configs.DESIGNS))
def test_every_model_stage_parity(kind):
    """Every IQ design behind the stage's select_issue call, on gcc."""
    _assert_same(configs.DESIGNS[kind].conformance_config(), "gcc")


@requires_stage
def test_beyond_l2_stage_parity():
    """Memory ops issue their address add: the EA-ready records."""
    processor = _assert_same(configs.segmented(512, 128, "comb"), SCATTER)
    stats = processor.stats.as_dict()
    assert stats["lsq.loads"] > 200
    assert stats["l2.misses"] > 100


@requires_stage
def test_mispredict_heavy_stage_parity(monkeypatch):
    """gcc mispredicts often: completions resolve branches, releasing
    fetch, from the compiled completion record."""
    from repro.frontend.fetch import FrontEnd
    resolved = []
    original = FrontEnd.branch_resolved

    def counting(self, inst, cycle):
        resolved.append(inst.is_branch)
        return original(self, inst, cycle)

    monkeypatch.setattr(FrontEnd, "branch_resolved", counting)
    processor = _assert_same(configs.segmented(256, 64, "comb"), "gcc")
    assert processor.stats.get("bpred.mispredicts") > 100
    assert resolved.count(True) > 100


@requires_stage
@pytest.mark.parametrize("workload", ["gcc", "swim"])
def test_event_driven_matches_plain_loop_with_stage(workload):
    """Skipping quiescent cycles changes nothing with the stage on."""
    params = configs.segmented(512, 128, "comb")
    skip, skip_digest = _simulate(params, workload, "compiled")
    plain, plain_digest = _simulate(params, workload, "compiled",
                                    event_driven=False)
    assert skip._c_issue is not None and plain._c_issue is not None
    assert skip.stats.get("skip.cycles_skipped") > 0
    assert skip.cycle == plain.cycle
    strip = lambda stats: {key: value for key, value in stats.items()
                           if not key.startswith("skip.")}
    assert strip(skip.stats.as_dict()) == strip(plain.stats.as_dict())
    assert skip_digest == plain_digest


# ----------------------------------------------------------------- path --
def _count_python_stage(monkeypatch):
    calls = {"issue": 0, "complete": 0}
    issue, complete = Processor._issue, Processor._complete

    def counting_issue(self, now):
        calls["issue"] += 1
        return issue(self, now)

    def counting_complete(self, inst, cycle):
        calls["complete"] += 1
        return complete(self, inst, cycle)

    monkeypatch.setattr(Processor, "_issue", counting_issue)
    monkeypatch.setattr(Processor, "_complete", counting_complete)
    return calls


@requires_stage
def test_stage_runs_for_plain_compiled_run(monkeypatch):
    """Unclustered, untraced, unchecked, compiled: never the Python
    issue stage, and no completion goes through a Python frame."""
    calls = _count_python_stage(monkeypatch)
    processor, digest = _simulate(configs.segmented(512, 128, "comb"),
                                  "mgrid", "compiled")
    assert processor._c_issue is not None
    assert len(digest) == INSTRUCTIONS
    assert calls == {"issue": 0, "complete": 0}


@pytest.mark.parametrize("case", ["py", "clustered", "traced",
                                  "check_invariants"])
def test_python_stage_runs(case, monkeypatch):
    """The py backend and clustered, traced and invariant-checked runs
    all issue through Processor._issue and complete through
    Processor._complete."""
    if case != "py" and not _compiled_backend_built():
        pytest.skip("compiled kernel backend not built")
    calls = _count_python_stage(monkeypatch)
    params = configs.segmented(512, 128, "comb")
    options = {}
    backend = "compiled"
    if case == "py":
        backend = "py"
    elif case == "clustered":
        params = params.replace(clusters=2)
    elif case == "traced":
        options["tracer"] = RingBufferTracer()
    else:
        params = params.replace(check_invariants=True)
    processor, digest = _simulate(params, "mgrid", backend, **options)
    assert processor._c_issue is None
    assert digest
    assert calls["issue"] and calls["complete"]


@requires_stage
def test_extension_without_stage_falls_back(monkeypatch):
    """A processor that binds no compiled stage (the lookup finds no
    module) runs the Python twins (Processor._issue and _complete) over
    the compiled engine with the same results."""
    from repro.pipeline import processor as processor_module
    params = configs.segmented(512, 128, "comb")
    with_stage, digest = _simulate(params, "swim", "compiled")
    assert with_stage._c_issue is not None
    monkeypatch.setattr(processor_module, "compiled_module", lambda: None)
    calls = _count_python_stage(monkeypatch)
    without, fallback_digest = _simulate(params, "swim", "compiled")
    assert without._c_issue is None
    assert without.iq.kernel_backend == "compiled"
    assert calls["issue"] and calls["complete"]
    assert without.cycle == with_stage.cycle
    assert _stat_bytes(without) == _stat_bytes(with_stage)
    assert fallback_digest == digest
