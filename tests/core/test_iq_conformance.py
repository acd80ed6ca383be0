"""Cross-model conformance suite.

Every IQ design in the design table (``repro.harness.configs.DESIGNS``)
is held to the same two contracts, with no per-design test code:

* **Oracle agreement** — under its small, edge-case-heavy
  ``validation_config`` the design must commit exactly the architectural
  instruction stream on seeded fuzz programs (the same differential
  check ``python -m repro validate`` runs at scale), with the pipeline
  invariant checker enabled.

* **Event-driven bit-identity** — under its workload-scale
  ``conformance_config`` a run with event-driven cycle skipping must be
  indistinguishable from the plain cycle loop: identical cycle counts,
  identical statistics apart from the ``skip.*`` bookkeeping counters,
  and identical JSONL trace streams, across all eight benchmarks.

Because the suite parametrizes over the table, a new design (see
docs/models.md) is picked up — and held to both contracts —
automatically.
"""

import argparse

import pytest

from repro import api
from repro.__main__ import _config_parent, _params_from_args
from repro.common import ConfigurationError, IQParams, StatGroup
from repro.harness.configs import DESIGNS
from repro.harness.surrogate import ISSUE_EFFICIENCY, WINDOW_EFFICIENCY
from repro.obs import RingBufferTracer, dump_jsonl
from repro.pipeline.processor import build_iq
from repro.validation.generator import FuzzProfile, build_fuzz_program
from repro.validation.oracle import differential_check
from repro.workloads import WORKLOADS


# Eight seeds is enough to hit full-queue and recovery paths under the
# deliberately tiny validation configs; the nightly campaign runs many
# more (python -m repro validate).
ORACLE_SEEDS = range(8)

ORACLE_PROFILE = FuzzProfile(length=30, loop_iterations=3)


def _accepts(kind):
    try:
        IQParams(kind=kind).validate()
    except ConfigurationError:
        return False
    return True


class TestDesignTable:
    def test_expected_designs_are_listed(self):
        # The six designs, in table order.  Extending this list is the
        # only edit this suite needs for a new design.
        assert list(DESIGNS) == ["ideal", "segmented", "prescheduled",
                                 "distance", "fifo", "delay_tracking"]

    def test_configs_validate_and_match_their_kind(self):
        for kind, design in DESIGNS.items():
            for factory in (design.validation_config,
                            design.conformance_config):
                params = factory()
                params.validate()
                assert params.iq.kind == kind, (kind, factory)

    def test_every_reader_sees_the_same_kinds(self):
        """The table is the one list of kinds: IQParams.validate, the
        CLI's --iq and the surrogate's efficiencies all agree with it,
        and every design is built by the same constructor call."""
        (iq_flag,) = [action for action in _config_parent()._actions
                      if "--iq" in action.option_strings]
        assert iq_flag.choices == list(DESIGNS)
        cli = argparse.ArgumentParser(parents=[_config_parent()])
        for kind in DESIGNS:
            args = cli.parse_args(["--iq", kind])
            assert _params_from_args(args).iq.kind == kind
        assert set(WINDOW_EFFICIENCY) == set(DESIGNS)
        assert set(ISSUE_EFFICIENCY) == set(DESIGNS)
        candidates = (set(DESIGNS) | set(iq_flag.choices)
                      | set(WINDOW_EFFICIENCY) | {"magic", ""})
        assert {kind for kind in candidates if _accepts(kind)} \
            == set(DESIGNS)
        for kind, design in DESIGNS.items():
            params = design.conformance_config()
            iq = design.iq_class()(params.iq, params.issue_width,
                                   StatGroup())
            assert type(iq) is type(build_iq(params, StatGroup())), kind
            assert iq.size == params.iq.size, kind


@pytest.mark.parametrize("kind", sorted(DESIGNS))
def test_oracle_agreement(kind):
    params = DESIGNS[kind].validation_config().replace(check_invariants=True)
    for seed in ORACLE_SEEDS:
        program = build_fuzz_program(ORACLE_PROFILE.with_seed(seed))
        result = differential_check(program, params, model=kind)
        assert result.ok, f"seed {seed}: {result}"


def _without_skip_counters(stats):
    """The skip.* counters describe the skipping mechanism itself and are
    the one permitted difference between modes."""
    return {key: value for key, value in stats.items()
            if not key.startswith("skip.")}


def _run(kind, workload, event_driven):
    params = DESIGNS[kind].conformance_config().replace(
        event_driven=event_driven, check_invariants=True)
    tracer = RingBufferTracer()
    result = api.run(params, workload, max_instructions=1200, trace=tracer)
    return result, dump_jsonl(tracer.events)


@pytest.mark.parametrize("kind", sorted(DESIGNS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_event_driven_bit_identity(workload, kind):
    on, trace_on = _run(kind, workload, True)
    off, trace_off = _run(kind, workload, False)
    assert on.cycles == off.cycles
    assert on.instructions == off.instructions
    assert (_without_skip_counters(on.stats)
            == _without_skip_counters(off.stats))
    assert trace_on == trace_off
    # The plain loop must not report any skipping.
    assert off.stats.get("skip.cycles_skipped", 0) == 0
