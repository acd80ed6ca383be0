"""Direct unit tests for SegmentedIQ internals: dispatch targeting,
promotion mechanics, and deadlock recovery on synthetic states."""

import pytest

from repro.common import StatGroup
from repro.core.iq_base import Operand
from repro.core.segmented import SegmentedIQ
from repro.harness import configs
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst


def make_iq(size=128, segment_size=32, max_chains=None, variant="comb",
            **kwargs):
    params = configs.segmented(size, max_chains, variant,
                               segment_size=segment_size, **kwargs).iq
    return SegmentedIQ(params, issue_width=8, stats=StatGroup())


def ready_inst(seq, opcode=Opcode.ADD):
    return DynInst(seq=seq, pc=seq, static=Instruction(
        opcode=opcode, dest=1, srcs=(0, 0)))


def load_inst(seq):
    return DynInst(seq=seq, pc=seq, static=Instruction(
        opcode=Opcode.LD, dest=1, srcs=(0,)))


def dispatch_ready(iq, seq, now=0):
    inst = ready_inst(seq)
    assert iq.can_dispatch(inst)
    return iq.dispatch(inst, [Operand(reg=0, ready_cycle=0)], now=now)


class TestDispatchTargeting:
    def test_empty_queue_bypasses_to_segment_zero(self):
        iq = make_iq()
        entry = dispatch_ready(iq, 0)
        assert iq.segment_of(entry) == 0
        assert iq.stats.get("iq.bypass_dispatches") == 1

    def test_without_bypass_dispatch_lands_on_top(self):
        iq = make_iq(bypass=False)
        entry = dispatch_ready(iq, 0)
        assert iq.segment_of(entry) == iq.num_segments - 1

    def test_dispatch_follows_highest_nonempty(self):
        iq = make_iq()
        first = dispatch_ready(iq, 0)
        assert iq.segment_of(first) == 0
        second = dispatch_ready(iq, 1)
        # Segment 0 is the highest non-empty and has room.
        assert iq.segment_of(second) == 0

    def test_full_highest_spills_to_segment_above(self):
        iq = make_iq(size=64, segment_size=32)
        for seq in range(32):
            dispatch_ready(iq, seq)
        assert iq.segments[0].is_full
        spill = dispatch_ready(iq, 99)
        assert iq.segment_of(spill) == 1

    def test_completely_full_queue_refuses(self):
        iq = make_iq(size=64, segment_size=32)
        for seq in range(64):
            dispatch_ready(iq, seq)
        assert not iq.can_dispatch(ready_inst(999))


class TestIssueFromSegmentZero:
    def test_ready_entries_issue(self):
        iq = make_iq()
        dispatch_ready(iq, 0, now=0)
        issued = iq.select_issue(1, lambda inst: True)
        assert len(issued) == 1
        assert iq.occupancy == 0

    def test_issue_only_from_segment_zero(self):
        iq = make_iq(size=64, segment_size=32)
        for seq in range(32):
            dispatch_ready(iq, seq)
        upper = dispatch_ready(iq, 50)
        assert iq.segment_of(upper) == 1
        before = {entry.seq: iq.segment_of(entry)
                  for entry in iq.iter_entries()}
        issued = iq.select_issue(1, lambda inst: True)
        assert issued
        assert all(before[entry.seq] == 0 for entry in issued)

    def test_chain_head_issue_starts_self_timing(self):
        iq = make_iq(variant="lrp")
        load = load_inst(0)
        assert iq.can_dispatch(load)
        entry = iq.dispatch(load, [Operand(reg=0, ready_cycle=0)], now=0)
        chain = entry.chain_state.own_chain
        assert chain is not None
        assert not chain.issued
        iq.select_issue(1, lambda inst: True)
        assert chain.issued


class TestPromotion:
    def test_upper_entry_promotes_toward_issue(self):
        iq = make_iq(size=64, segment_size=32)
        for seq in range(32):
            dispatch_ready(iq, seq)
        upper = dispatch_ready(iq, 50)
        assert iq.segment_of(upper) == 1
        # Drain segment 0 so slots open, then run promotion cycles.
        for cycle in range(1, 20):
            iq.select_issue(cycle, lambda inst: True)
            iq.cycle(cycle)
            if iq.segment_of(upper) == 0:
                break
        assert iq.segment_of(upper) == 0

    def test_promotion_never_overfills_destination(self):
        iq = make_iq(size=64, segment_size=32)
        for seq in range(32):
            dispatch_ready(iq, seq)
        for seq in range(40, 60):
            dispatch_ready(iq, seq)          # 20 entries in segment 1
        # Issue a few from segment 0 each cycle; promotion may refill it
        # but must never exceed capacity.
        for cycle in range(1, 15):
            iq.select_issue(cycle, lambda inst: True)
            iq.cycle(cycle)
            for segment in iq.segments:
                assert segment.occupancy <= segment.capacity


class TestChainAccounting:
    def test_chain_freed_on_load_completion(self):
        iq = make_iq(variant="lrp", max_chains=4)
        load = load_inst(0)
        iq.dispatch(load, [Operand(reg=0, ready_cycle=0)], now=0)
        assert iq.chains.active_count == 1
        iq.select_issue(1, lambda inst: True)
        load.mem_level = "l2"
        iq.notify_load_complete(load, now=20)
        assert iq.chains.active_count == 0

    def test_miss_suspends_until_completion(self):
        iq = make_iq(variant="lrp")
        load = load_inst(0)
        entry = iq.dispatch(load, [Operand(reg=0, ready_cycle=0)], now=0)
        chain = entry.chain_state.own_chain
        iq.select_issue(1, lambda inst: True)
        iq.notify_load_miss(load, now=3)
        assert chain.suspended
        load.mem_level = "mem"
        iq.notify_load_complete(load, now=110)
        assert not chain.suspended

    def test_delay_of_reports_current_delay(self):
        iq = make_iq(variant="base")
        load = load_inst(0)
        iq.dispatch(load, [Operand(reg=0, ready_cycle=0)], now=0)
        consumer = DynInst(seq=1, pc=1, static=Instruction(
            opcode=Opcode.FADD, dest=33, srcs=(1, 0)))
        entry = iq.dispatch(consumer, [Operand(reg=1, producer=load,
                                               ready_cycle=None)], now=0)
        # Head queued in segment 0: delay = 2*0 + dh(4) = 4.
        assert iq.delay_of(entry) == 4
