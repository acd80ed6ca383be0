"""Property-based tests for the chain delay algebra and segment heaps.

These are the core data structures of the paper's design; hypothesis
drives them through arbitrary event sequences and checks the invariants
the promotion logic relies on.  Both live in the kernel engine's columns,
so the tests run over the pure-Python reference engine.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import StatGroup
from repro.core.segmented.chains import Chain, ChainManager
from repro.core.segmented.kernels import PyKernelEngine
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst


def make_inst(seq=0):
    return DynInst(seq=seq, pc=seq, static=Instruction(
        opcode=Opcode.LD, dest=1, srcs=(2,)))


#: A chain "event script": each element advances time and may fire events.
chain_event = st.sampled_from(["promote", "issue", "suspend", "resume",
                               "tick"])


def replay(events, head_segment=8, head_latency=4):
    """Apply an event script; returns the chain and the final time."""
    engine = PyKernelEngine(head_segment + 1, 8,
                            list(range(0, 2 * head_segment + 2, 2)))
    chain = Chain(0, make_inst(), engine, head_segment, head_latency)
    now = 0
    for event in events:
        now += 1
        if event == "promote" and not chain.issued and chain.head_segment > 0:
            chain.on_head_promoted(chain.head_segment - 1)
        elif event == "issue" and chain.head_segment == 0:
            chain.on_head_issued(now)
        elif event == "suspend":
            chain.suspend(now)
        elif event == "resume":
            chain.resume(now)
    return chain, now


class TestChainAlgebraProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(chain_event, max_size=40),
           st.integers(min_value=0, max_value=30))
    def test_member_delay_never_negative(self, events, dh):
        chain, now = replay(events)
        for t in range(now, now + 5):
            assert chain.member_delay(dh, t) >= 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(chain_event, max_size=40),
           st.integers(min_value=0, max_value=30))
    def test_member_delay_monotone_nonincreasing_in_time(self, events, dh):
        # With no further chain events, delays can only fall (self-timed)
        # or stay constant (queued/suspended) as time advances.
        chain, now = replay(events)
        previous = chain.member_delay(dh, now)
        for t in range(now + 1, now + 10):
            current = chain.member_delay(dh, t)
            assert current <= previous
            previous = current

    @settings(max_examples=200, deadline=None)
    @given(st.lists(chain_event, max_size=40),
           st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=20))
    def test_deeper_members_never_ahead(self, events, dh, extra):
        # A member further down the dependence chain (larger dh) can never
        # have a smaller delay than a shallower one.
        chain, now = replay(events)
        assert (chain.member_delay(dh + extra, now)
                >= chain.member_delay(dh, now))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(chain_event, max_size=40))
    def test_self_elapsed_never_exceeds_wallclock(self, events):
        chain, now = replay(events)
        # The resume catch-up may credit up to head_latency cycles.
        assert chain.self_elapsed(now) <= now + chain.head_latency

    @settings(max_examples=100, deadline=None)
    @given(st.lists(chain_event, max_size=40),
           st.integers(min_value=2, max_value=16))
    def test_queued_delay_matches_two_per_segment(self, events, dh):
        chain, now = replay(events)
        if not chain.issued:
            assert chain.member_delay(dh, now) == 2 * chain.head_segment + dh

    @settings(max_examples=100, deadline=None)
    @given(st.lists(chain_event, min_size=5, max_size=40))
    def test_resume_catch_up_zeroes_direct_members(self, events):
        # After the head completes (resume), a direct consumer
        # (dh == head_latency) must stand at delay 0.
        chain, now = replay(events + ["suspend", "resume"])
        if chain.issued and not chain.suspended:
            assert chain.member_delay(chain.head_latency, now) == 0


class TestChainManagerProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["alloc", "free"]), max_size=60),
           st.integers(min_value=1, max_value=8))
    def test_usage_never_exceeds_limit(self, script, limit):
        manager = ChainManager(limit, StatGroup())
        engine = PyKernelEngine(2, 8, [0, 2])
        live = []
        for index, action in enumerate(script):
            if action == "alloc":
                chain = manager.allocate(make_inst(index), engine, 0)
                if chain is not None:
                    live.append(chain)
            elif live:
                manager.free(live.pop())
            assert manager.active_count <= limit
            assert manager.peak_in_use <= limit

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_ids_unique_among_live_chains(self, limit):
        manager = ChainManager(limit, StatGroup())
        engine = PyKernelEngine(2, 8, [0, 2])
        live = [manager.allocate(make_inst(i), engine, 0)
                for i in range(limit)]
        ids = [chain.chain_id for chain in live]
        assert len(set(ids)) == len(ids)
        manager.free(live[0])
        replacement = manager.allocate(make_inst(99), engine, 0)
        assert replacement.chain_id not in {c.chain_id for c in live[1:]}


class TestSegmentHeapProperties:
    """The two-stage maturity/ready heaps behind promotion select."""

    def insert(self, engine, seg, seq, ready_at, now=0):
        """An entry whose only link is a countdown to ``ready_at``."""
        return engine.insert_entry(object(), seq, seg, ready_at, -1, 0,
                                   -1, 0, -1, now)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                              st.integers(min_value=0, max_value=40)),
                    min_size=1, max_size=32, unique_by=lambda t: t[0]))
    def test_pop_eligible_returns_exactly_the_due_entries(self, specs):
        engine = PyKernelEngine(3, 64, [0, 2, 4])
        for seq, ready_at in specs:
            self.insert(engine, 2, seq, ready_at)
        probe = 20
        eligible = engine.pop_eligible(2, probe, len(specs))
        eligible_seqs = {engine.e_seq[slot] for slot in eligible}
        for seq, ready_at in specs:
            # Eligible iff delay(probe) < threshold, i.e. countdown has
            # fallen below 4 by the probe cycle.
            due = max(0, ready_at - probe) < 4
            assert (seq in eligible_seqs) == due

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                    max_size=20, unique=True))
    def test_pop_eligible_is_oldest_first(self, seqs):
        engine = PyKernelEngine(2, 32, [0, 100])
        for seq in seqs:
            self.insert(engine, 1, seq, 0)
        eligible = engine.pop_eligible(1, 5, len(seqs))
        assert [engine.e_seq[slot] for slot in eligible] == sorted(seqs)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=2,
                    max_size=20, unique=True))
    def test_unpromoted_candidates_persist_across_pops(self, seqs):
        # The ready heap is maintained across cycles: a pop bounded by the
        # promotion budget leaves the rest in place, still oldest-first.
        engine = PyKernelEngine(2, 32, [0, 100])
        for seq in seqs:
            self.insert(engine, 1, seq, 0)
        budget = len(seqs) // 2
        first = engine.pop_eligible(1, 5, budget)
        again = engine.pop_eligible(1, 5, len(seqs))
        assert [engine.e_seq[s] for s in first] == sorted(seqs)[:budget]
        assert [engine.e_seq[s] for s in again] == sorted(seqs)[budget:]

    def test_duplicate_heap_records_do_not_duplicate_promotion(self):
        engine = PyKernelEngine(2, 32, [0, 2])
        slot = self.insert(engine, 1, 0, 10)      # matures at cycle 9
        engine.reschedule_all(0)                  # duplicate heap pushes
        engine.reschedule_all(0)
        assert len(engine.heaps[1]) == 3
        assert engine.pop_eligible(1, 9, 5) == [slot]
        assert engine.pop_eligible(1, 9, 5) == []
