"""The compiled dispatch stage against its Python twin, and which runs.

``Processor._dispatch`` is the Python dispatch loop; on the compiled
kernel backend an unclustered, untraced run on the stock ROB runs its C
twin (``_ckernels.DispatchStage``) instead, one call per cycle.  The
backend parity suites in ``tests/core/test_kernels.py`` pass a tracer,
which keeps those runs on the Python loop, so the runs here carry no
tracer: they compare ``py`` with ``compiled`` on cycles, every stat and
a per-instruction digest of each retired instruction's pipeline
timestamps, recorded through ``commit_listeners``.
"""

import json

import pytest

from repro.core.segmented import kernels
from repro.harness import configs
from repro.isa import execute
from repro.obs import RingBufferTracer
from repro.pipeline import Processor
from repro.harness.runner import resolve_workload
from repro.workloads import WORKLOADS
from tests.validation.broken import BrokenROB

INSTRUCTIONS = 1500


def _compiled_stage_available() -> bool:
    kernels.set_backend("compiled")
    try:
        kernels.backend()
    except RuntimeError:
        return False
    finally:
        kernels.set_backend(None)
    return True


requires_stage = pytest.mark.skipif(
    not _compiled_stage_available(),
    reason="compiled kernel backend not built "
           "(python -m repro.core.segmented.build)")


def _stat_bytes(processor) -> str:
    """A run's stats as sorted-key JSON: byte equality also catches a
    value-type difference (``117`` against ``117.0``) that ``==``
    forgives."""
    return json.dumps(processor.stats.as_dict(), sort_keys=True)


def _simulate(params, workload, backend, *, tracer=None, rob_cls=None):
    """One untraced run (unless ``tracer``) under a forced backend;
    returns (processor, digest)."""
    spec = resolve_workload(workload)
    program = spec.build(1)
    kernels.set_backend(backend)
    try:
        processor = Processor(
            params, execute(program, max_instructions=INSTRUCTIONS),
            tracer=tracer)
        if rob_cls is not None:
            # A fresh stat group: the stock ROB registered the names.
            from repro.common.stats import StatGroup
            processor.rob = rob_cls(params.rob_size, StatGroup())
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
    assert py_proc._c_dispatch is None
    assert c_proc._c_dispatch is not None
    assert c_proc.committed == py_proc.committed > 0
    assert c_proc.cycle == py_proc.cycle
    assert _stat_bytes(c_proc) == _stat_bytes(py_proc)
    assert c_digest == py_digest


# --------------------------------------------------------------- parity --
@requires_stage
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_dense_segmented_stage_parity(workload):
    """seg-512/128ch comb, the dense design point, on every analog."""
    _assert_same(configs.segmented(512, 128, "comb"), workload)


@requires_stage
@pytest.mark.parametrize("kind", sorted(configs.DESIGNS))
def test_every_model_stage_parity(kind):
    """Every IQ design behind the stage's method calls, on gcc."""
    _assert_same(configs.DESIGNS[kind].conformance_config(), "gcc")


@requires_stage
@pytest.mark.parametrize("variant", ["lrp", "hmp"])
def test_single_predictor_stage_parity(variant):
    """LRP-only plans pick one link and never make two-chain heads;
    HMP-only plans let two-chain instructions head chains."""
    _assert_same(configs.segmented(256, 64, variant), "swim")


STALLS = {
    # 4 segments of 16, 8 chain wires, a 10-entry LSQ.
    "chain-iq-lsq": (configs.segmented(64, 8, "base", segment_size=16)
                     .replace(lsq_size=10), ("chain", "iq", "lsq")),
    # A ROB no larger than the IQ and a 6-entry LSQ.
    "rob-lsq": (configs.ideal(32).replace(rob_factor=1, lsq_size=6),
                ("rob", "lsq")),
}


@requires_stage
@pytest.mark.parametrize("case", sorted(STALLS))
def test_stall_paths_stage_parity(case):
    """Small structures, so every dispatch stall counter is charged."""
    params, stalls = STALLS[case]
    _assert_same(params, "ammp")
    processor, _digest = _simulate(params, "ammp", "compiled")
    stats = processor.stats.as_dict()
    for stall in stalls:
        assert stats[f"dispatch.stall_{stall}"] > 0, stall


# ----------------------------------------------------------------- path --
def _count_python_loop(monkeypatch):
    calls = []
    original = Processor._dispatch

    def counting(self, now):
        calls.append(now)
        return original(self, now)

    monkeypatch.setattr(Processor, "_dispatch", counting)
    return calls


@requires_stage
def test_stage_runs_for_plain_compiled_run(monkeypatch):
    """Unclustered, untraced, stock ROB, compiled: never the Python loop."""
    calls = _count_python_loop(monkeypatch)
    processor, digest = _simulate(configs.segmented(512, 128, "comb"),
                                  "mgrid", "compiled")
    assert processor._c_dispatch is not None
    assert len(digest) == INSTRUCTIONS
    assert calls == []


@pytest.mark.parametrize("case", ["py", "clustered", "traced", "broken_rob"])
def test_python_loop_runs(case, monkeypatch):
    """The py backend, clustered and traced runs, and a non-stock ROB
    all dispatch through Processor._dispatch."""
    if case != "py" and not _compiled_stage_available():
        pytest.skip("compiled kernel backend not built")
    calls = _count_python_loop(monkeypatch)
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
        options["rob_cls"] = BrokenROB
    processor, digest = _simulate(params, "mgrid", backend, **options)
    assert digest
    assert calls
    assert processor._c_dispatch is None    # the rob setter unbinds it


@requires_stage
def test_extension_without_stage_falls_back(monkeypatch):
    """A processor that binds no compiled stage (the lookup finds no
    module) runs the Python loop over the compiled engine with the same
    results."""
    from repro.pipeline import processor as processor_module
    params = configs.segmented(512, 128, "comb")
    with_stage, digest = _simulate(params, "swim", "compiled")
    monkeypatch.setattr(processor_module, "compiled_module", lambda: None)
    calls = _count_python_loop(monkeypatch)
    without, fallback_digest = _simulate(params, "swim", "compiled")
    assert without._c_dispatch is None
    assert without.iq.kernel_backend == "compiled"
    assert calls
    assert without.cycle == with_stage.cycle
    assert _stat_bytes(without) == _stat_bytes(with_stage)
    assert fallback_digest == digest

