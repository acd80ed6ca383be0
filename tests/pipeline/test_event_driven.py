"""Event-driven cycle skipping must be invisible in the results.

``Processor.run`` fast-forwards the clock across provably quiescent
stretches (docs/performance.md).  The cross-model on/off bit-identity
matrix lives in ``tests/core/test_iq_conformance.py`` (every registered
design x every workload); these tests cover what that matrix cannot —
that skipping actually *fires* and crosses a long miss shadow in a
constant number of steps.
"""

import dataclasses

import pytest

from repro import api
from repro.common import ProcessorParams, ideal_iq_params
from repro.harness import configs
from repro.isa import ProgramBuilder, R, execute
from repro.memory.cache import Cache
from repro.obs import RingBufferTracer, dump_jsonl
from repro.pipeline import Processor
from repro.pipeline.lsq import LoadStoreQueue
from repro.workloads import WorkloadSpec
from repro.workloads.synthetic import SyntheticProfile, build_synthetic


def _run(factory, workload, event_driven):
    params = factory().replace(event_driven=event_driven)
    return api.run(params, workload, max_instructions=1200)


def test_skip_actually_fires_somewhere():
    # Not every cell is obliged to skip, but gcc under the segmented IQ
    # has long miss shadows; if nothing skips there, the feature is off.
    result = _run(lambda: configs.segmented(256, 64, "comb"), "gcc", True)
    assert result.stats.get("skip.cycles_skipped", 0) > 0
    assert result.stats.get("skip.windows", 0) > 0


def _miss_shadow_program():
    """One cold load feeding a short chain: almost the whole run is the
    memory round trip."""
    builder = ProgramBuilder("miss_shadow")
    # Load far past the lines warm_code() installs so the access misses
    # both L1D and L2 and pays the full main-memory latency.
    data = builder.alloc("data", 1024, init=[7] * 1024)
    builder.li(R(1), 4096)
    builder.ld(R(2), R(1), base=data)
    builder.addi(R(3), R(2), 1)
    builder.halt()
    return builder.build()


def test_miss_shadow_crossed_in_constant_steps():
    """A ~1200-cycle memory stall must cost O(events) steps, not O(cycles):
    nearly every cycle of the shadow is skipped in a handful of windows."""
    program = _miss_shadow_program()
    params = ProcessorParams().replace(iq=ideal_iq_params(64))
    params = params.replace(memory=dataclasses.replace(
        params.memory, main_memory_latency=1200))
    processor = Processor(params, execute(program))
    processor.warm_code(program)
    processor.run(max_cycles=100_000)
    assert processor.done
    total = processor.stats.get("cycles")
    skipped = processor.stats.get("skip.cycles_skipped")
    assert total > 1200          # the shadow dominates the run
    assert skipped >= 1000       # ... and was fast-forwarded, not stepped
    assert total - skipped < 120  # active cycles: dispatch burst + wakeup
    assert processor.stats.get("skip.windows") < 40


# ---------------------------------------------------------------------------
# MSHR-full retry storms: a large window keeps more independent misses
# ready than the L1D has MSHRs, so most LSQ cycles hold loads the L1D
# refuses.  The LSQ counts the loads it knows will be refused again
# instead of re-offering them; that must change nothing, with skip-ahead
# on or off, and these cells must keep reaching it.

_SCATTER_2MB = SyntheticProfile(
    name="scatter-2mb", iterations=200, loads_per_iteration=2,
    stores_per_iteration=1, footprint_words=1 << 18,
    access_pattern="scatter", fp_chain_depth=3, fp_parallel_ops=3,
    int_ops=2, seed=5)


def _scatter_workload():
    return WorkloadSpec(_SCATTER_2MB.name,
                        lambda scale=1: build_synthetic(_SCATTER_2MB),
                        default_instructions=1600, is_fp=True,
                        warm_data=False, description="scatter over 2 MB")


_STORMS = [
    pytest.param(configs.ideal(512), "equake", 1500, id="equake-ideal-512"),
    pytest.param(configs.ideal(256), _scatter_workload(), 1600,
                 id="scatter-2mb-ideal-256"),
]


def _traced(params, workload, instructions, event_driven):
    tracer = RingBufferTracer()
    result = api.run(params.replace(event_driven=event_driven,
                                    check_invariants=True),
                     workload, max_instructions=instructions, trace=tracer)
    return result, dump_jsonl(tracer.events)


@pytest.mark.parametrize("params,workload,instructions", _STORMS)
def test_retry_storm_bit_identity(params, workload, instructions):
    on, trace_on = _traced(params, workload, instructions, True)
    off, trace_off = _traced(params, workload, instructions, False)
    assert on.cycles == off.cycles
    assert on.instructions == off.instructions
    strip = lambda stats: {key: value for key, value in stats.items()
                           if not key.startswith("skip.")}
    assert strip(on.stats) == strip(off.stats)
    assert trace_on == trace_off
    assert on.stats["l1d.mshr_full_retries"] > 0


@pytest.mark.parametrize("params,workload,instructions", _STORMS + [
    pytest.param(configs.ideal(512).replace(mem_dep_policy="store_sets"),
                 "equake", 1500, id="equake-ideal-512-store-sets"),
])
def test_retry_storm_matches_exhaustive_retry(monkeypatch, params, workload,
                                              instructions):
    """Counting known refusals is exact: forgetting the refused loads
    before every LSQ cycle (every candidate attempted in full) changes no
    cycle, stat or trace event."""
    attempts = []
    rejects = Cache.rejects

    def counted(cache, addr):
        attempts[-1] += 1
        return rejects(cache, addr)

    monkeypatch.setattr(Cache, "rejects", counted)
    attempts.append(0)
    fast = _traced(params, workload, instructions, True)
    cycle = LoadStoreQueue.cycle

    def exhaustive(lsq, now):
        lsq._refused = 0
        cycle(lsq, now)

    monkeypatch.setattr(LoadStoreQueue, "cycle", exhaustive)
    attempts.append(0)
    slow = _traced(params, workload, instructions, True)
    assert fast[0].cycles == slow[0].cycles
    assert fast[0].stats == slow[0].stats
    assert fast[1] == slow[1]
    assert attempts[0] < attempts[1] / 2    # refusals were counted
