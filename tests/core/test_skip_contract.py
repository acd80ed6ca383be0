"""Property tests for the event-driven skip-ahead hook contract.

Every IQ design implements three hooks (see docs/models.md and
docs/performance.md): ``next_event_cycle(now)`` — a side-effect-free
quiescence probe promising no internal event strictly before the
returned cycle; ``skip_cycles(now, count)`` — O(1) replay of the
per-cycle accounting for a quiescent window; and
``blocked_dispatch_wake(now)`` — the earliest cycle a blocked dispatch
could unblock.

These tests wrap the hooks of a live IQ instance and check the contract
*as the processor exercises it*:

* the probe is idempotent (asking twice at the same cycle returns the
  same promise, with no behavioural side effects),
* every skip window stays within the promise that justified it,
* waking **early** is always safe — capping the promise at
  ``now + cap`` for small random caps (so long quiescent stretches are
  crossed in many short hops with re-probes in between) must leave every
  architectural and microarchitectural statistic bit-identical to the
  plain cycle-by-cycle loop.

The last property is the load-bearing one: it proves designs do not
depend on being woken exactly at their promised cycle, which is what
lets the processor conservatively clamp wake-ups (budgets, other
components' earlier events) without consulting the IQ again.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.core.segmented.links import NEVER
from repro.harness.configs import DESIGNS
from repro.isa import execute
from repro.pipeline import Processor
from repro.validation.generator import FuzzProfile, build_fuzz_program


PROFILE = FuzzProfile(length=20, loop_iterations=3)


class HookRecorder:
    """Wrap one IQ instance's skip hooks, checking the contract live.

    With ``cap`` set, every promise is clamped to ``now + cap`` — a
    forced early wake.  The contract says this is always safe: the probe
    simply re-runs at the wake cycle.
    """

    def __init__(self, iq, cap=None):
        self.promises = []          # (now, promise as seen by the core)
        self.skips = []             # (now, count)
        self.blocked_wakes = []     # (now, wake)
        orig_next = iq.next_event_cycle
        orig_skip = iq.skip_cycles
        orig_blocked = iq.blocked_dispatch_wake

        def next_event_cycle(now):
            promise = orig_next(now)
            # Probe idempotence: asking again must not change the answer
            # (and must not perturb the design — the equivalence test
            # below would catch behavioural side effects).
            assert orig_next(now) == promise, "probe is not idempotent"
            if cap is not None and promise > now + cap:
                promise = now + cap
            self.promises.append((now, promise))
            return promise

        def skip_cycles(now, count):
            assert count >= 1
            probe_now, promise = self.promises[-1]
            # A skip window is always justified by a probe at its start...
            assert probe_now == now, "skip without a same-cycle probe"
            # ... and never extends past what the IQ promised.
            if promise != NEVER:
                assert now + count <= promise, (
                    f"skipped past the promise: [{now}, {now + count}) "
                    f"vs promise {promise}")
            self.skips.append((now, count))
            return orig_skip(now, count)

        def blocked_dispatch_wake(now):
            wake = orig_blocked(now)
            assert wake > now, "blocked-dispatch wake must be in the future"
            self.blocked_wakes.append((now, wake))
            return wake

        iq.next_event_cycle = next_event_cycle
        iq.skip_cycles = skip_cycles
        iq.blocked_dispatch_wake = blocked_dispatch_wake


def _stats_without_skip(stats):
    return {key: value for key, value in stats.as_dict().items()
            if not key.startswith("skip.")}


def _run(kind, program, *, event_driven, cap=None):
    params = DESIGNS[kind].conformance_config().replace(
        event_driven=event_driven)
    processor = Processor(params, execute(program))
    processor.warm_code(program)
    recorder = (HookRecorder(processor.iq, cap=cap)
                if event_driven else None)
    processor.run(max_cycles=300_000)
    assert processor.done
    return processor, recorder


@pytest.mark.parametrize("kind", sorted(DESIGNS))
@settings(max_examples=4, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       cap=st.integers(min_value=1, max_value=9))
def test_forced_early_wake_never_changes_results(kind, seed, cap):
    program = build_fuzz_program(PROFILE.with_seed(seed))
    plain, _ = _run(kind, program, event_driven=False)
    forced, recorder = _run(kind, program, event_driven=True, cap=cap)
    assert forced.cycle == plain.cycle
    assert forced.committed == plain.committed
    assert (_stats_without_skip(forced.stats)
            == _stats_without_skip(plain.stats))
    # Every skip window obeyed the (capped) promise by construction of
    # HookRecorder; double-check the accounting adds up.
    skipped = sum(count for _, count in recorder.skips)
    assert skipped == forced.stats.get("skip.cycles_skipped")
    assert all(count <= cap for _, count in recorder.skips)


@pytest.mark.parametrize("kind", sorted(DESIGNS))
def test_uncapped_windows_respect_promises(kind):
    # Uncapped run: the recorder asserts the window/promise relation on
    # every skip; here we additionally check windows are disjoint and
    # strictly advance.
    program = build_fuzz_program(PROFILE.with_seed(99))
    processor, recorder = _run(kind, program, event_driven=True)
    end = -1
    for now, count in recorder.skips:
        assert now > end, "skip windows must be disjoint and ordered"
        end = now + count - 1
    total = sum(count for _, count in recorder.skips)
    assert total == processor.stats.get("skip.cycles_skipped")
