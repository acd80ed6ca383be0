"""Reproduces the paper's Figure 1 worked example.

The example code sequence (with ADD latency 1 and MUL latency 2, available
operands marked *):

    i0: add *,* -> r1    latency 1   delay 0
    i1: mul *,* -> r2    latency 2   delay 0
    i2: add r2,* -> r4   latency 1   delay 2
    i3: mul r4,* -> r6   latency 2   delay 3
    i4: mul r6,* -> r8   latency 2   delay 5
    i5: add r1,* -> r3   latency 1   delay 1
    i6: add r3,* -> r5   latency 1   delay 2
    i7: add r5,* -> r7   latency 1   delay 3
    i8: add r6,r7 -> r9  latency 1   delay 5

Two chains: i0 heads {i5, i6, i7}; i1 heads {i2, i3, i4, i8} (the
left/right predictor assigns i8 to the r6 chain, as drawn in Figure 1(b)).
The sequence is dispatched into a real three-segment ``SegmentedIQ``
(thresholds 2/4/6) and left to promote without issuing.  Once both heads
have descended to segment 0, every delay value equals the paper's and the
queue holds Figure 1(b)'s placement.
"""

import pytest

from repro.common import StatGroup
from repro.core.iq_base import Operand
from repro.core.segmented import SegmentedIQ
from repro.harness import configs
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst

PROGRAM = [
    # (name, opcode, dest, srcs, latency, is_head)
    ("i0", Opcode.ADD, 1, (), 1, True),
    ("i1", Opcode.MUL, 2, (), 2, True),
    ("i2", Opcode.ADD, 4, (2,), 1, False),
    ("i3", Opcode.MUL, 6, (4,), 2, False),
    ("i4", Opcode.MUL, 8, (6,), 2, False),
    ("i5", Opcode.ADD, 3, (1,), 1, False),
    ("i6", Opcode.ADD, 5, (3,), 1, False),
    ("i7", Opcode.ADD, 7, (5,), 1, False),
    ("i8", Opcode.ADD, 9, (6, 7), 1, False),
]

#: Cycles of promotion after which the queue has settled.
SETTLED = 5


def dispatch_example():
    """Dispatch Figure 1 into the top segment at cycle 0 and promote
    until cycle ``SETTLED``; returns the queue and entries by name."""
    params = configs.segmented(48, None, "lrp", segment_size=16,
                               pushdown=False, bypass=False).iq
    iq = SegmentedIQ(params, issue_width=8, stats=StatGroup())
    # Instructions stay queued (nothing is issued); something in
    # execution keeps the deadlock detector from firing.
    iq.in_flight = 1
    producers = {}
    entries = {}
    for seq, (name, opcode, dest, srcs, latency, is_head) in \
            enumerate(PROGRAM):
        inst = DynInst(seq=seq, pc=seq, static=Instruction(
            opcode=opcode, dest=dest, srcs=srcs))
        inst.latency = latency          # Figure 1's MUL takes 2 cycles
        if is_head:
            # Figure 1's heads are an add and a mul; the model creates
            # heads only for loads and two-chain instructions, so the
            # dispatch plan is marked by hand.
            plan = iq._plan(inst, 0)
            plan.needs_chain = True
            plan.head_latency = latency
        operands = [Operand(reg, producers[reg], None) for reg in srcs]
        assert iq.can_dispatch(inst)
        entries[name] = iq.dispatch(inst, operands, now=0)
        producers[dest] = inst
    for cycle in range(1, SETTLED + 1):
        iq.cycle(cycle)
    return iq, entries


def chain_of(entry):
    state = entry.chain_state
    if state.own_chain is not None:
        return state.own_chain
    (chain, _dh), = state.chain_pairs
    return chain


@pytest.fixture(scope="module")
def example():
    return dispatch_example()


class TestFigure1DelayValues:
    def test_all_delay_values_match_the_paper(self, example):
        iq, entries = example
        delays = {name: iq.delay_of(entry)
                  for name, entry in entries.items()}
        assert delays == {
            "i0": 0, "i1": 0, "i2": 2, "i3": 3, "i4": 5,
            "i5": 1, "i6": 2, "i7": 3, "i8": 5,
        }

    def test_chain_assignment_matches_figure_1b(self, example):
        _iq, entries = example
        chain_a = chain_of(entries["i0"])
        chain_b = chain_of(entries["i1"])
        assert chain_a is not chain_b
        for name in ("i5", "i6", "i7"):
            assert chain_of(entries[name]) is chain_a
        for name in ("i2", "i3", "i4", "i8"):
            assert chain_of(entries[name]) is chain_b
        # i8 follows r6, 5 cycles behind i1 (the predicted-later operand).
        assert entries["i8"].chain_state.chain_pairs == [(chain_b, 5)]

    def test_segment_placement_for_three_segment_queue(self, example):
        """Figure 1(b): thresholds 2/4/6 place i0,i1,i5 in segment 0;
        i2,i6,i3,i7 in segment 1; i4,i8 in segment 2."""
        iq, entries = example
        placement = {name: iq.segment_of(entry)
                     for name, entry in entries.items()}
        assert placement == {
            "i0": 0, "i1": 0, "i5": 0,
            "i2": 1, "i6": 1, "i3": 1, "i7": 1,
            "i4": 2, "i8": 2,
        }
        assert iq.segment_occupancies() == [3, 4, 2]

    def test_self_timing_after_i0_issues(self):
        """Paper 3.2: if i0 issues, i5/i6/i7 self-time and descend while
        i1's chain members stay in place."""
        iq, entries = dispatch_example()
        issue_cycle = SETTLED + 1
        issued = iq.select_issue(issue_cycle, lambda inst: inst.seq == 0)
        assert issued == [entries["i0"]]
        for cycle in range(issue_cycle, issue_cycle + 4):
            iq.cycle(cycle)
        # Three cycles after the issue, i7 (dh=3) reaches delay 0 and
        # chain A has reached segment 0; chain B is unchanged.
        assert iq.now == issue_cycle + 3
        assert iq.delay_of(entries["i7"]) == 0
        for name in ("i5", "i6", "i7"):
            assert iq.segment_of(entries[name]) == 0
        assert iq.delay_of(entries["i2"]) == 2
        assert iq.segment_of(entries["i2"]) == 1
        assert iq.delay_of(entries["i4"]) == 5
