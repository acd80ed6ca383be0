"""Tests for the discrete event queue: both implementations.

``repro.common.events.EventQueue`` is the compiled queue when the kernel
extension is built (and ``REPRO_KERNELS`` is not ``py``), otherwise the
pure-Python ``_PyEventQueue``.  Every test here runs on both, and a
differential test drives the two with the same interleaved operations:
plain and typed records, callbacks that schedule more events while the
queue drains, and the refused past-cycle requests.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.events import _PyEventQueue


def _compiled_queue():
    """The compiled EventQueue class, or None."""
    try:
        from repro.core.segmented import _ckernels
    except ImportError:
        return None
    return _ckernels.EventQueue


CompiledQueue = _compiled_queue()


class TestEventQueue:
    """Every test runs on the Python queue here and on the compiled
    queue in the subclass below."""

    EventQueue = _PyEventQueue

    def test_events_fire_at_their_cycle(self):
        queue = self.EventQueue()
        fired = []
        queue.schedule(3, lambda: fired.append(queue.now))
        queue.advance_to(2)
        assert fired == []
        queue.advance_to(3)
        assert fired == [3]

    def test_same_cycle_events_fire_in_insertion_order(self):
        queue = self.EventQueue()
        fired = []
        for tag in range(5):
            queue.schedule(1, lambda tag=tag: fired.append(tag))
        queue.advance_to(1)
        assert fired == [0, 1, 2, 3, 4]

    def test_advance_fires_all_intermediate_events(self):
        queue = self.EventQueue()
        fired = []
        for delay in (5, 1, 3):
            queue.schedule(delay, lambda d=delay: fired.append(d))
        queue.advance_to(10)
        assert fired == [1, 3, 5]
        assert queue.now == 10

    def test_event_can_schedule_followup(self):
        queue = self.EventQueue()
        fired = []

        def first():
            fired.append("first")
            queue.schedule(2, lambda: fired.append("second"))

        queue.schedule(1, first)
        queue.advance_to(3)
        assert fired == ["first", "second"]

    def test_followup_on_same_cycle_fires(self):
        queue = self.EventQueue()
        fired = []
        queue.schedule(1, lambda: queue.schedule(0, lambda: fired.append("x")))
        queue.advance_to(1)
        assert fired == ["x"]

    def test_negative_delay_rejected(self):
        queue = self.EventQueue()
        with pytest.raises(SimulationError):
            queue.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        queue = self.EventQueue()
        queue.advance_to(5)
        with pytest.raises(SimulationError):
            queue.schedule_at(3, lambda: None)

    def test_time_cannot_go_backwards(self):
        queue = self.EventQueue()
        queue.advance_to(5)
        with pytest.raises(SimulationError):
            queue.advance_to(4)

    def test_next_event_cycle(self):
        queue = self.EventQueue()
        assert queue.next_event_cycle() == -1
        queue.schedule(7, lambda: None)
        assert queue.next_event_cycle() == 7

    def test_len_counts_pending(self):
        queue = self.EventQueue()
        queue.schedule(1, lambda: None)
        queue.schedule(2, lambda: None)
        assert len(queue) == 2
        queue.advance_to(1)
        assert len(queue) == 1

    def test_typed_record_fires_with_arg_and_cycle(self):
        queue = self.EventQueue()
        fired = []
        queue.schedule_at(4, lambda arg, cycle: fired.append((arg, cycle)),
                          "inst")
        queue.schedule(2, lambda arg, cycle: fired.append((arg, cycle)), 7)
        queue.schedule(3, lambda: fired.append("plain"), None)
        queue.advance_to(4)
        assert fired == [(7, 2), "plain", ("inst", 4)]

    def test_callback_error_propagates_and_record_is_gone(self):
        queue = self.EventQueue()

        def boom(arg, cycle):
            raise ValueError(arg)

        queue.schedule(1, boom, "typed")
        with pytest.raises(ValueError, match="typed"):
            queue.advance_to(1)
        assert len(queue) == 0

    # Run by both classes, hence two executors of one test function.
    @settings(suppress_health_check=[HealthCheck.differing_executors])
    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=50))
    def test_events_always_fire_in_time_order(self, delays):
        queue = self.EventQueue()
        fired = []
        for delay in delays:
            queue.schedule(delay, lambda d=delay: fired.append(d))
        queue.advance_to(101)
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


@pytest.mark.skipif(CompiledQueue is None,
                    reason="compiled kernel backend not built "
                           "(python -m repro.core.segmented.build)")
class TestCompiledEventQueue(TestEventQueue):
    EventQueue = CompiledQueue


# --------------------------------------------------------- differential --
# One operation: ("schedule", delay, kind), ("schedule_at", offset, kind)
# (offsets from ``now``, negative ones refused), ("advance", step) (a
# negative step is refused), ("len",) or ("next",).  A kind is "plain",
# "typed" or "chain": a typed record that, when it fires, schedules a
# plain follow-up ``hops`` cycles later (0 = the cycle being drained).
kinds = st.one_of(st.just(("plain",)), st.just(("typed",)),
                  st.tuples(st.just("chain"),
                            st.integers(min_value=0, max_value=3)))
operations = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.integers(min_value=-2, max_value=8),
              kinds),
    st.tuples(st.just("schedule_at"),
              st.integers(min_value=-3, max_value=8), kinds),
    st.tuples(st.just("advance"), st.integers(min_value=-2, max_value=6)),
    st.tuples(st.just("len")),
    st.tuples(st.just("next"))), max_size=60)


def _drive(EventQueue, program):
    """Run ``program`` on a fresh queue; the log of everything seen."""
    queue = EventQueue()
    log = []

    def record(tag):
        def fire(*args):
            log.append(("fire", tag, queue.now, args))
        return fire

    def chained(tag, hops):
        def fire(arg, cycle):
            log.append(("fire", tag, queue.now, (arg, cycle)))
            queue.schedule(hops, record(f"{tag}+"))
        return fire

    for tag, op in enumerate(program):
        name = op[0]
        try:
            if name in ("schedule", "schedule_at"):
                when = op[1] if name == "schedule" else queue.now + op[1]
                kind = op[2]
                schedule = getattr(queue, name)
                if kind[0] == "plain":
                    schedule(when, record(tag))
                elif kind[0] == "typed":
                    schedule(when, record(tag), ("inst", tag))
                else:
                    schedule(when, chained(tag, kind[1]), ("inst", tag))
            elif name == "advance":
                queue.advance_to(queue.now + op[1])
            elif name == "len":
                log.append(("len", len(queue)))
            else:
                log.append(("next", queue.next_event_cycle()))
        except SimulationError as exc:
            log.append(("error", str(exc)))
        log.append(("now", queue.now))
    queue.advance_to(queue.now + 20)
    log.append(("drained", len(queue), queue.next_event_cycle()))
    return log


@pytest.mark.skipif(CompiledQueue is None,
                    reason="compiled kernel backend not built")
@settings(max_examples=200, deadline=None)
@given(operations)
def test_compiled_queue_matches_python_queue(program):
    assert _drive(CompiledQueue, program) == _drive(_PyEventQueue, program)
