"""Direct unit tests for the Michaud-Seznec prescheduling IQ."""

import pytest

from repro.common import StatGroup
from repro.core.iq_base import Operand
from repro.core.prescheduler import IN_ARRAY, IN_BUFFER, PreschedulingIQ
from repro.harness import configs
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst


def make_inst(seq, opcode=Opcode.ADD, dest=1, srcs=(2, 3)):
    return DynInst(seq=seq, pc=seq, static=Instruction(
        opcode=opcode, dest=dest, srcs=srcs))


def always_fu(_inst):
    return True


def make_iq(lines=4, width=8):
    return PreschedulingIQ(configs.prescheduled(lines).iq, width, StatGroup())


class TestScheduling:
    def test_independent_instruction_lands_in_row_zero_region(self):
        iq = make_iq()
        entry = iq.dispatch(make_inst(0), [Operand(reg=2)], now=0)
        assert entry.segment == IN_ARRAY
        assert iq.occupancy == 1

    def test_dependent_instruction_scheduled_later_row(self):
        iq = make_iq(lines=8)
        producer = make_inst(0, opcode=Opcode.FMUL)   # latency 4
        entry_p = iq.dispatch(producer, [Operand(reg=2)], now=0)
        consumer = make_inst(1, srcs=(1, 1))
        entry_c = iq.dispatch(consumer, [Operand(reg=1, producer=producer,
                                                 ready_cycle=None)], now=0)
        row_of = {}
        for index, row in enumerate(iq._rows):
            for entry in row:
                row_of[entry.seq] = index
        # Quasi-static schedule: the consumer sits ~a multiply latency
        # below the producer's row.
        assert row_of[1] >= row_of[0] + 4

    def test_rows_drain_one_per_cycle(self):
        iq = make_iq()
        for seq in range(3):
            iq.dispatch(make_inst(seq), [Operand(reg=2)], now=0)
        base_before = iq._base_cycle
        iq.cycle(1)
        assert iq._base_cycle == base_before + 1

    def test_full_row_overflows_forward(self):
        iq = make_iq(lines=4)
        stats_before = 0
        # Line width is 12: the 13th same-cycle instruction spills.
        for seq in range(13):
            iq.dispatch(make_inst(seq), [Operand(reg=2)], now=0)
        assert iq.stat_overflow_placements.value >= 1

    def test_can_dispatch_false_when_array_full(self):
        iq = make_iq(lines=1)      # 12 slots
        for seq in range(12):
            assert iq.can_dispatch(make_inst(seq))
            iq.dispatch(make_inst(seq), [Operand(reg=2)], now=0)
        assert not iq.can_dispatch(make_inst(99))


class TestIssueBuffer:
    def test_issue_only_from_buffer(self):
        iq = make_iq()
        iq.dispatch(make_inst(0), [Operand(reg=2)], now=0)
        # Not yet drained into the buffer: nothing to issue.
        assert iq.select_issue(1, always_fu) == []
        iq.cycle(1)               # row 0 (empty) shifts out
        iq.cycle(2)               # the entry's row drains into the buffer
        issued = iq.select_issue(3, always_fu)
        assert len(issued) == 1

    def test_unready_buffer_entry_waits_for_actual_readiness(self):
        iq = make_iq()
        producer = make_inst(0, opcode=Opcode.LD, srcs=(2,))
        iq.dispatch(producer, [Operand(reg=2)], now=0)
        consumer = make_inst(1, srcs=(1, 1))
        iq.dispatch(consumer, [Operand(reg=1, producer=producer,
                                       ready_cycle=None)], now=0)
        for cycle in range(1, 12):
            iq.cycle(cycle)
            iq.select_issue(cycle, always_fu)
        # The consumer has long drained into the buffer, but its load
        # value never arrived: it must still be unissued.
        assert consumer.issued_cycle < 0
        assert iq.occupancy >= 1

    def test_buffer_capacity_stalls_array(self):
        iq = make_iq()
        # Fill the buffer with unready consumers of one fake load.
        producer = make_inst(999, opcode=Opcode.LD, srcs=(2,))
        for seq in range(40):
            # Distinct destinations: independent consumers of one load.
            inst = make_inst(seq, dest=4 + seq % 20, srcs=(1, 1))
            if not iq.can_dispatch(inst):
                break
            iq.dispatch(inst, [Operand(reg=1, producer=producer,
                                       ready_cycle=None)], now=0)
        for cycle in range(1, 10):
            iq.cycle(cycle)
        assert iq._buffer_count <= iq.buffer_capacity
        assert iq.stat_array_stalls.value > 0

