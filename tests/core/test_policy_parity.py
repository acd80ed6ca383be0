"""The segmented IQ's policy: the compiled engine against its Python twin.

The segmented IQ's per-cycle and per-instruction policy runs in its
kernel engine on both backends: ``cycle`` (the promotion sweep and its
counters, segment-0 arrivals, deadlock detection, the chain-wire and
occupancy samples), chain allocation and the predictor consults at
dispatch, the chain head's issue signal and left/right training at
issue, and the load and writeback hooks (suspend, resume, the wire free,
hit/miss training).  ``tests/core/test_engine_parity.py`` compares the
two engines call for call; the runs here compare ``py`` with
``compiled`` over whole runs: cycles, the sorted-key stats JSON
(``chains.*``, ``hmp.*``, ``lrp.*``, ``iq.deadlock_*`` and
``iq.pushdowns`` included) and a per-instruction digest.  A run cut
short also compares the chains, wire pool and predictor tables it
leaves; traced runs compare their JSONL bytes, and two of them are
pinned to a hash of their trace.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.predictors import HitMissPredictor, LeftRightPredictor
from repro.core.segmented import kernels
from repro.core.segmented.chains import Chain, ChainManager
from repro.harness import configs
from repro.harness.runner import resolve_workload
from repro.isa import execute
from repro.obs import RingBufferTracer, dump_jsonl
from repro.pipeline import Processor
from repro.workloads import WORKLOADS

INSTRUCTIONS = 3000
DENSE = configs.segmented(512, 128, "comb")
DESIGNS = {"seg-512/128ch": DENSE,
           "seg-128/64ch": configs.segmented(128, 64, "comb"),
           "seg-512/128ch-base": configs.segmented(512, 128, "base")}

#: sha256 of the JSONL trace of ``_simulate(DENSE, workload, ...,
#: tracer=RingBufferTracer())``, the same on both backends.  A change
#: here is a change to the segmented IQ's traces.
PINNED_TRACES = {
    "applu": "e4192a4f1cd1e6c46be1cceaea54c0e4"
             "2258b72d3fdc57fc040b7e03756ef83c",
    "swim": "8298caaca6a60a5407b38b8fc517d4dd"
            "fd9b4d74ace3c1337fe91e107399a316",
}


def _compiled_engine_available() -> bool:
    kernels.set_backend("compiled")
    try:
        kernels.backend()
    except RuntimeError:
        return False
    finally:
        kernels.set_backend(None)
    return True


requires_compiled = pytest.mark.skipif(
    not _compiled_engine_available(),
    reason="compiled kernel backend not built "
           "(python -m repro.core.segmented.build)")


def _simulate(params, workload, backend, *, instructions=INSTRUCTIONS,
              tracer=None, max_cycles=1_000_000, streams=1):
    """One run under a forced backend: (processor, digest), the digest
    holding each retired instruction's timestamps and memory level."""
    spec = resolve_workload(workload)
    program = spec.build(1)
    kernels.set_backend(backend)
    try:
        stream = [execute(program, max_instructions=instructions)
                  for _ in range(streams)]
        processor = Processor(params, stream if streams > 1 else stream[0],
                              tracer=tracer)
        for thread in range(streams):
            processor.warm_code(program, thread)
            if spec.warm_data:
                processor.warm_data(program, thread)
        digest = []
        processor.commit_listeners.append(
            lambda inst, now: digest.append((
                inst.seq, inst.dispatched_cycle, inst.issued_cycle,
                inst.completed_cycle, inst.committed_cycle,
                inst.mem_level)))
        processor.run(max_cycles=max_cycles)
    finally:
        kernels.set_backend(None)
    return processor, digest


def _stat_bytes(processor) -> str:
    return json.dumps(processor.stats.as_dict(), sort_keys=True)


def _chain(chain):
    return (chain.chain_id, chain.cslot, chain.head.seq, chain.head_latency,
            chain.issued_cycle, chain.suspended_since, chain.suspended_accum,
            chain.freed, chain.cluster, chain.mode, chain.base,
            chain.head_segment)


def _policy_state(processor):
    """What the policy leaves in a segmented IQ: the wire pool, the head
    chains, the predictor tables, the deadlock clocks and each
    segment's entries."""
    iq = processor.iq
    pool = iq.chains
    tables = [(type(p).__name__, sorted(p._counters.items()),
               sorted(getattr(p, "_outstanding", {}).items()))
              for p in (iq.hmp, iq.lrp) if p is not None]
    return ({cid: _chain(chain) for cid, chain in pool._active.items()},
            list(pool._free_ids), pool._next_id, pool.peak_in_use,
            {seq: _chain(chain) for seq, chain in iq._head_chains.items()},
            tables, iq._last_issue_cycle, iq.active_segments,
            [[entry.seq for entry in iq._engine.entries_of(seg)]
             for seg in range(iq.num_segments)])


def _assert_same(params, workload, **options):
    py_proc, py_digest = _simulate(params, workload, "py", **options)
    c_proc, c_digest = _simulate(params, workload, "compiled", **options)
    assert py_proc.iq.kernel_backend == "py"
    assert c_proc.iq.kernel_backend == "compiled"
    assert c_proc.committed == py_proc.committed > 0
    assert c_proc.cycle == py_proc.cycle
    assert _stat_bytes(c_proc) == _stat_bytes(py_proc)
    assert c_digest == py_digest
    assert _policy_state(c_proc) == _policy_state(py_proc)
    return c_proc


# --------------------------------------------------------------- parity --
@requires_compiled
@pytest.mark.parametrize("design", sorted(DESIGNS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_analog_policy_parity(workload, design):
    """Every analog on the dense design points, with and without the
    predictors (``base`` makes two-chain instructions chain heads)."""
    stats = _assert_same(DESIGNS[design], workload).stats.as_dict()
    assert stats["chains.allocated"] > 0
    if design.endswith("base"):
        assert stats.get("hmp.predictions", 0) == 0
    else:
        assert stats["hmp.predictions"] > 0


@requires_compiled
def test_deadlock_recoveries_parity():
    """applu's whole stream at seg-512/128ch recovers from deadlock 19
    times: the compiled cycle's test calls the queue's _recover at the
    same cycles."""
    processor = _assert_same(DENSE, "applu", instructions=25_000)
    assert processor.stats.get("iq.deadlock_recoveries") == 19


@requires_compiled
def test_dynamic_resize_parity():
    params = replace(DENSE, iq=replace(DENSE.iq, dynamic_resize=True))
    stats = _assert_same(params, "swim").stats.as_dict()
    assert stats["iq.resize_shrink"] > 0


@requires_compiled
def test_adaptive_thresholds_parity():
    params = replace(DENSE, iq=replace(DENSE.iq, adaptive_thresholds=True,
                                       enable_pushdown=False))
    stats = _assert_same(params, "twolf").stats.as_dict()
    assert stats["iq.threshold_refits"] > 0


@requires_compiled
def test_two_thread_parity():
    _assert_same(DENSE, "swim", streams=2)


@requires_compiled
def test_clustered_parity():
    _assert_same(replace(DENSE, clusters=2), "gcc")


@requires_compiled
@pytest.mark.parametrize("max_cycles", [150, 400, 900])
def test_cut_off_parity(max_cycles):
    """A cut-off leaves chains in flight, some suspended on a miss."""
    processor = _assert_same(DENSE, "equake", max_cycles=max_cycles)
    assert processor.cycle == max_cycles
    assert any(chain.suspended for chain
               in processor.iq.chains._active.values())


@requires_compiled
@pytest.mark.parametrize("workload", sorted(PINNED_TRACES))
def test_traced_policy_parity(workload):
    """With a tracer attached the compiled engine emits every chain and
    promote event where the Python policy does: the JSONL bytes match
    the py backend and the pinned trace."""
    traces = []
    for backend in ("py", "compiled"):
        tracer = RingBufferTracer()
        _simulate(DENSE, workload, backend, tracer=tracer)
        traces.append(dump_jsonl(tracer.events))
    assert traces[1] == traces[0]
    kinds = {line.split('"kind":"')[1].split('"')[0]
             for line in traces[1].splitlines()}
    assert {"chain_create", "chain_wire", "promote"} <= kinds
    digest = hashlib.sha256(traces[1].encode()).hexdigest()
    assert digest == PINNED_TRACES[workload]


# ----------------------------------------------------------------- paths --
#: The Python policy bodies the compiled engine runs inline.
_POLICY_METHODS = [(ChainManager, "allocate"), (ChainManager, "free"),
                   (ChainManager, "has_free"), (Chain, "on_head_issued"),
                   (Chain, "suspend"), (Chain, "resume"),
                   (HitMissPredictor, "predict_hit"),
                   (HitMissPredictor, "train"),
                   (LeftRightPredictor, "predict_later"),
                   (LeftRightPredictor, "train")]


@pytest.mark.parametrize("backend", [
    "py", pytest.param("compiled", marks=requires_compiled)])
def test_policy_runs_in_the_engine(monkeypatch, backend):
    """On the compiled backend no chain or predictor method runs: the
    engine does their work inline.  The py backend calls every one."""
    calls = {}
    for cls, name in _POLICY_METHODS:
        method = getattr(cls, name)

        def counting(*args, _method=method, _key=f"{cls.__name__}.{name}",
                     **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    processor, _digest = _simulate(DENSE, "applu", backend)
    assert processor.committed == INSTRUCTIONS
    if backend == "compiled":
        assert calls == {}
    else:
        assert set(calls) == {f"{cls.__name__}.{name}"
                              for cls, name in _POLICY_METHODS}
