"""Tests for dependence chains and the chain-wire pool.

Chains keep their delay constants in a kernel engine's chain columns, so
every chain here is built over a (pure-Python) engine."""

from repro.common import StatGroup
from repro.core.segmented.chains import Chain, ChainManager
from repro.core.segmented.kernels import NEVER, PyKernelEngine
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst


def make_inst(seq=0):
    return DynInst(seq=seq, pc=0,
                   static=Instruction(opcode=Opcode.LD, dest=1, srcs=(2,)))


def make_engine():
    return PyKernelEngine(4, 8, [0, 2, 4, 6])


def make_chain(head_segment):
    return Chain(0, make_inst(), make_engine(), head_segment)


class TestChainDelayAlgebra:
    def test_queued_head_delay_is_two_per_segment(self):
        chain = make_chain(head_segment=3)
        # Paper 3.3: delay = 2*S_H + D_H.
        assert chain.member_delay(dh=4, now=100) == 2 * 3 + 4

    def test_promotion_reduces_delay_by_two(self):
        chain = make_chain(head_segment=3)
        before = chain.member_delay(4, 100)
        chain.on_head_promoted(2)
        assert chain.member_delay(4, 100) == before - 2

    def test_issue_starts_self_timing(self):
        chain = make_chain(head_segment=0)
        chain.on_head_issued(now=10)
        assert chain.member_delay(6, 10) == 6
        assert chain.member_delay(6, 13) == 3
        assert chain.member_delay(6, 30) == 0     # clamped at zero

    def test_suspend_freezes_delay(self):
        chain = make_chain(head_segment=0)
        chain.on_head_issued(now=0)
        chain.suspend(now=4)
        assert chain.member_delay(10, 4) == 6
        assert chain.member_delay(10, 50) == 6    # frozen

    def test_resume_continues_countdown(self):
        chain = make_chain(head_segment=0)
        chain.on_head_issued(now=0)
        chain.suspend(now=4)
        chain.resume(now=104)
        # 4 cycles elapsed pre-suspend; countdown resumes at 104.
        assert chain.member_delay(10, 104) == 6
        assert chain.member_delay(10, 107) == 3
        assert chain.member_delay(10, 110) == 0

    def test_multiple_suspend_resume_rounds(self):
        chain = make_chain(head_segment=0)
        chain.on_head_issued(now=0)
        chain.suspend(now=2)
        chain.resume(now=10)
        chain.suspend(now=12)
        chain.resume(now=20)
        # Elapsed self-time: 2 + 2 = 4.
        assert chain.member_delay(10, 20) == 6

    def test_suspend_before_issue_is_ignored(self):
        chain = make_chain(head_segment=2)
        chain.suspend(now=5)
        assert not chain.suspended
        assert chain.member_delay(4, 5) == 8

    def test_delay_static_classification(self):
        # Member delays are static while the head is queued or the chain
        # is suspended, and count down while self-timed.
        chain = make_chain(head_segment=2)
        assert chain.mode == Chain.MODE_QUEUED
        assert chain.member_delay(5, 0) == chain.member_delay(5, 9)
        chain.on_head_issued(now=0)
        assert chain.mode == Chain.MODE_TICKING
        assert chain.member_delay(5, 3) < chain.member_delay(5, 1)
        chain.suspend(now=1)
        assert chain.mode == Chain.MODE_SUSPENDED
        assert chain.member_delay(5, 2) == chain.member_delay(5, 9)
        chain.resume(now=2)
        assert chain.mode == Chain.MODE_TICKING

    def test_events_publish_into_the_engine_columns(self):
        engine = make_engine()
        chain = Chain(0, make_inst(), engine, head_segment=2)
        assert (engine.c_mode[chain.cslot], engine.c_base[chain.cslot],
                engine.c_hseg[chain.cslot]) == (Chain.MODE_QUEUED, 4, 2)
        chain.on_head_promoted(1)
        assert (chain.mode, chain.base, chain.head_segment) == (0, 2, 1)
        chain.on_head_promoted(0)
        chain.on_head_issued(now=7)
        assert (chain.mode, chain.base, chain.head_segment) == (
            Chain.MODE_TICKING, 7, 0)
        chain.suspend(now=9)
        assert (chain.mode, chain.base) == (Chain.MODE_SUSPENDED, 2)
        chain.resume(now=20)
        assert chain.mode == Chain.MODE_TICKING
        assert (engine.c_mode[chain.cslot], engine.c_base[chain.cslot],
                engine.c_hseg[chain.cslot]) == (
            chain.mode, chain.base, chain.head_segment)


class TestChainNotifications:
    def test_subscribers_called_on_every_event(self):
        # Members in segment 3 (threshold 6) are rescheduled by every
        # chain event, each recomputing its promote-eligibility cycle.
        engine = make_engine()
        chain = Chain(0, make_inst(), engine, head_segment=2)
        near = engine.insert_entry(object(), 5, 3, -1, chain.cslot, 3,
                                   -1, 0, -1, now=0)
        far = engine.insert_entry(object(), 6, 3, -1, chain.cslot, 9,
                                  -1, 0, -1, now=0)
        assert engine.e_elig[near] == engine.e_elig[far] == NEVER
        chain.on_head_promoted(1)        # near: 2 + 3 < 6
        assert engine.e_elig[near] == 0
        assert engine.e_elig[far] == NEVER
        engine.set_now(1)
        chain.on_head_issued(now=1)      # far: 1 + 9 - 6 + 1
        assert engine.e_elig[far] == 5
        engine.set_now(3)
        chain.suspend(now=3)             # far frozen at 9 - 2 >= 6
        assert engine.e_elig[far] == NEVER
        engine.set_now(10)
        chain.resume(now=10)             # base 1 + 7 suspended cycles
        assert engine.e_elig[far] == 8 + 9 - 6 + 1

    def test_subscriber_returning_false_unsubscribes(self):
        engine = make_engine()
        chain = Chain(0, make_inst(), engine, head_segment=2)
        slot = engine.insert_entry(object(), 5, 1, -1, chain.cslot, 1,
                                   -1, 0, -1, now=0)
        engine.free_entry(slot)
        chain.on_head_promoted(1)
        assert engine.c_members[chain.cslot] == []


class TestChainManager:
    def test_allocate_until_limit(self):
        engine = make_engine()
        manager = ChainManager(2, StatGroup())
        assert manager.allocate(make_inst(0), engine, 1) is not None
        assert manager.allocate(make_inst(1), engine, 1) is not None
        assert manager.allocate(make_inst(2), engine, 1) is None

    def test_unlimited_chains(self):
        engine = make_engine()
        manager = ChainManager(None, StatGroup())
        chains = [manager.allocate(make_inst(i), engine, 0)
                  for i in range(500)]
        assert all(chain is not None for chain in chains)

    def test_free_recycles_wire(self):
        engine = make_engine()
        manager = ChainManager(1, StatGroup())
        first = manager.allocate(make_inst(0), engine, 0)
        assert manager.allocate(make_inst(1), engine, 0) is None
        manager.free(first)
        assert manager.allocate(make_inst(2), engine, 0) is not None

    def test_double_free_is_idempotent(self):
        engine = make_engine()
        manager = ChainManager(4, StatGroup())
        chain = manager.allocate(make_inst(0), engine, 0)
        manager.free(chain)
        manager.free(chain)          # second free is a no-op
        assert manager.active_count == 0

    def test_peak_tracking(self):
        engine = make_engine()
        manager = ChainManager(None, StatGroup())
        chains = [manager.allocate(make_inst(i), engine, 0)
                  for i in range(5)]
        for chain in chains[:3]:
            manager.free(chain)
        manager.allocate(make_inst(9), engine, 0)
        assert manager.peak_in_use == 5
        assert manager.active_count == 3

    def test_freed_chain_object_still_computes_delays(self):
        # Members keep counting down after the wire is recycled.
        engine = make_engine()
        manager = ChainManager(1, StatGroup())
        chain = manager.allocate(make_inst(0), engine, 0)
        chain.on_head_issued(now=0)
        manager.free(chain)
        assert chain.member_delay(8, 5) == 3

    def test_alloc_failure_counts(self):
        stats = StatGroup()
        engine = make_engine()
        manager = ChainManager(1, stats)
        manager.allocate(make_inst(0), engine, 0)
        manager.allocate(make_inst(1), engine, 0)
        assert stats.get("chains.alloc_failures") == 1
