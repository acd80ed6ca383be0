"""Unit tests for the invariant hooks: each check fires on a planted
corruption and stays silent on healthy state."""

import pytest

from repro.common import StatGroup, segmented_iq_params
from repro.common.errors import InvariantViolation
from repro.core.iq_base import IQEntry, Operand
from repro.core.segmented import SegmentedIQ, kernels
from repro.core.segmented.chains import Chain
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst
from repro.pipeline.rob import ReorderBuffer
from repro.validation.invariants import InvariantChecker


def make_iq(size=64, segment_size=32, max_chains=None, **kwargs):
    """A segmented IQ over the pure-Python engine, whose columns the
    tests below can corrupt directly."""
    params = segmented_iq_params(size, segment_size, max_chains, **kwargs)
    kernels.set_backend("py")
    try:
        return SegmentedIQ(params, issue_width=8, stats=StatGroup())
    finally:
        kernels.set_backend(None)


def ready_inst(seq):
    return DynInst(seq=seq, pc=seq, static=Instruction(
        opcode=Opcode.ADD, dest=1, srcs=(0, 0)))


def dispatch_ready(iq, seq, now=0):
    return iq.dispatch(ready_inst(seq), [Operand(reg=0, ready_cycle=0)],
                       now=now)


class TestROBChecks:
    def test_healthy_rob_passes(self):
        rob = ReorderBuffer(8, StatGroup())
        rob.dispatch(ready_inst(0))
        rob.dispatch(ready_inst(1))
        rob.check(now=0)

    def test_out_of_order_entries_fire(self):
        rob = ReorderBuffer(8, StatGroup())
        rob.dispatch(ready_inst(1))
        rob.dispatch(ready_inst(0))
        with pytest.raises(InvariantViolation, match="out of program order"):
            rob.check(now=0)

    def test_committed_instruction_still_buffered_fires(self):
        rob = ReorderBuffer(8, StatGroup())
        inst = ready_inst(0)
        rob.dispatch(inst)
        inst.committed_cycle = 3
        with pytest.raises(InvariantViolation, match="committed"):
            rob.check(now=5)

    def test_oversize_fires(self):
        rob = ReorderBuffer(1, StatGroup())
        rob.dispatch(ready_inst(0))
        rob.dispatch(ready_inst(1))      # has_space not consulted: planted
        with pytest.raises(InvariantViolation, match="size"):
            rob.check(now=0)


class TestSegmentedIQChecks:
    def test_healthy_queue_passes(self):
        iq = make_iq()
        for seq in range(6):
            dispatch_ready(iq, seq)
        iq.check(now=0)

    def test_corrupted_occupancy_counter_fires(self):
        iq = make_iq()
        dispatch_ready(iq, 0)
        iq._occupancy += 1
        with pytest.raises(InvariantViolation, match="occupancy counter"):
            iq.check(now=0)

    def test_segment_membership_mismatch_fires(self):
        iq = make_iq()
        entry = dispatch_ready(iq, 0)
        # The entry's segment column disagrees with segment membership.
        iq._engine.e_seg[entry.chain_state.slot] = 1
        with pytest.raises(InvariantViolation, match="thinks it is in"):
            iq.check(now=0)

    def test_issued_entry_still_occupying_fires(self):
        iq = make_iq()
        entry = dispatch_ready(iq, 0)
        entry.issued = True              # issued without being removed
        with pytest.raises(InvariantViolation, match="issued"):
            iq.check(now=0)

    def test_queued_head_segment_disagreement_fires(self):
        iq = make_iq(hmp=False)
        load = DynInst(seq=0, pc=0, static=Instruction(
            opcode=Opcode.LD, dest=1, srcs=(0,)))
        entry = iq.dispatch(load, [Operand(reg=0, ready_cycle=0)], now=0)
        chain = entry.chain_state.own_chain
        assert chain is not None
        iq._engine.c_hseg[chain.cslot] += 1   # missed promotion broadcast
        with pytest.raises(InvariantViolation, match="broadcasts head"):
            iq.check(now=0)

    def test_queued_head_base_disagreement_fires(self):
        iq = make_iq(hmp=False)
        load = DynInst(seq=0, pc=0, static=Instruction(
            opcode=Opcode.LD, dest=1, srcs=(0,)))
        entry = iq.dispatch(load, [Operand(reg=0, ready_cycle=0)], now=0)
        chain = entry.chain_state.own_chain
        iq._engine.c_base[chain.cslot] = 2    # not 2 * head segment 0
        with pytest.raises(InvariantViolation, match="queued delay"):
            iq.check(now=0)


class TestChainChecks:
    def test_issued_chain_off_segment_zero_fires(self):
        iq = make_iq(hmp=False)
        load = DynInst(seq=0, pc=0, static=Instruction(
            opcode=Opcode.LD, dest=1, srcs=(0,)))
        entry = iq.dispatch(load, [Operand(reg=0, ready_cycle=0)], now=0)
        iq.select_issue(1, lambda inst: True)
        chain = entry.chain_state.own_chain
        assert chain.issued
        iq._engine.c_hseg[chain.cslot] = 2
        with pytest.raises(InvariantViolation, match="must be 0"):
            iq.chains.check(now=2)

    def test_suspended_before_issue_fires(self):
        manager_iq = make_iq(hmp=False)
        chain = Chain(0, ready_inst(0), manager_iq._engine, head_segment=1)
        chain.suspended_since = 5        # suspend() would refuse this
        manager_iq.chains._active[0] = chain
        with pytest.raises(InvariantViolation, match="suspended"):
            manager_iq.chains.check(now=6)


class TestIssueReadiness:
    def test_issuing_unknown_operand_fires(self):
        checker = InvariantChecker(processor=None)
        inst = ready_inst(0)
        entry = IQEntry(inst, [Operand(reg=1, producer=ready_inst(99),
                                       ready_cycle=None)])
        with pytest.raises(InvariantViolation, match="unknown"):
            checker.check_issue(entry, now=4)

    def test_issuing_future_ready_fires(self):
        checker = InvariantChecker(processor=None)
        entry = IQEntry(ready_inst(0), [Operand(reg=1, ready_cycle=10)])
        with pytest.raises(InvariantViolation, match="not ready"):
            checker.check_issue(entry, now=4)

    def test_ready_entry_passes(self):
        checker = InvariantChecker(processor=None)
        entry = IQEntry(ready_inst(0), [Operand(reg=1, ready_cycle=3)])
        checker.check_issue(entry, now=4)
