"""Direct unit tests for the conventional (ideal) IQ."""

import pytest

from repro.common import StatGroup
from repro.core.conventional import ConventionalIQ
from repro.core.iq_base import Operand
from repro.harness import configs
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst


def make_inst(seq, opcode=Opcode.ADD):
    return DynInst(seq=seq, pc=seq, static=Instruction(
        opcode=opcode, dest=1, srcs=(2, 3)))


def always_fu(_inst):
    return True


class TestConventionalIQ:
    def make(self, size=8, width=4):
        return ConventionalIQ(configs.ideal(size).iq, width, StatGroup())

    def test_dispatch_until_full(self):
        iq = self.make(size=2)
        iq.dispatch(make_inst(0), [Operand(reg=2)], now=0)
        assert iq.can_dispatch(make_inst(1))
        iq.dispatch(make_inst(1), [Operand(reg=2)], now=0)
        assert not iq.can_dispatch(make_inst(2))
        assert iq.occupancy == 2
        assert iq.free_slots == 0

    def test_ready_entry_issues_next_cycle(self):
        iq = self.make()
        iq.dispatch(make_inst(0), [Operand(reg=2, ready_cycle=0)], now=5)
        assert iq.select_issue(5, always_fu) == []     # not same cycle
        issued = iq.select_issue(6, always_fu)
        assert len(issued) == 1
        assert iq.occupancy == 0

    def test_oldest_first_selection(self):
        iq = self.make(width=1)
        entries = [iq.dispatch(make_inst(seq), [Operand(reg=2)], now=0)
                   for seq in (5, 3, 9)]
        issued = iq.select_issue(2, always_fu)
        assert [e.seq for e in issued] == [3]
        issued = iq.select_issue(3, always_fu)
        assert [e.seq for e in issued] == [5]

    def test_issue_width_enforced(self):
        iq = self.make(width=2)
        for seq in range(5):
            iq.dispatch(make_inst(seq), [Operand(reg=2)], now=0)
        assert len(iq.select_issue(1, always_fu)) == 2
        assert len(iq.select_issue(2, always_fu)) == 2
        assert len(iq.select_issue(3, always_fu)) == 1

    def test_fu_rejection_retries_later(self):
        iq = self.make()
        iq.dispatch(make_inst(0), [Operand(reg=2)], now=0)
        assert iq.select_issue(1, lambda i: False) == []
        assert iq.occupancy == 1
        assert len(iq.select_issue(2, always_fu)) == 1

    def test_unknown_operand_blocks_until_wakeup(self):
        iq = self.make()
        producer = make_inst(0)
        operand = Operand(reg=2, producer=producer, ready_cycle=None)
        iq.dispatch(make_inst(1), [operand], now=0)
        assert iq.select_issue(5, always_fu) == []
        producer.set_value_ready(7)
        assert iq.select_issue(6, always_fu) == []     # ready at 7
        assert len(iq.select_issue(7, always_fu)) == 1

    def test_two_unknown_operands_wait_for_both(self):
        iq = self.make()
        producers = [make_inst(0), make_inst(1)]
        operands = [Operand(reg=2, producer=producers[0], ready_cycle=None),
                    Operand(reg=3, producer=producers[1], ready_cycle=None)]
        iq.dispatch(make_inst(2), operands, now=0)
        producers[0].set_value_ready(3)
        assert iq.select_issue(4, always_fu) == []
        producers[1].set_value_ready(10)
        assert iq.select_issue(9, always_fu) == []
        assert len(iq.select_issue(10, always_fu)) == 1

    def test_future_ready_cycle_respected(self):
        iq = self.make()
        iq.dispatch(make_inst(0), [Operand(reg=2, ready_cycle=20)], now=0)
        assert iq.select_issue(19, always_fu) == []
        assert len(iq.select_issue(20, always_fu)) == 1

    def test_stats_track_traffic(self):
        stats = StatGroup()
        iq = ConventionalIQ(configs.ideal(8).iq, 4, stats)
        iq.dispatch(make_inst(0), [Operand(reg=2)], now=0)
        iq.select_issue(1, always_fu)
        assert stats.get("iq.dispatched") == 1
        assert stats.get("iq.issued") == 1
