"""Tests for delay links, promote eligibility, and the register
information table.

Eligibility is computed by the kernel engine over its entry and chain
columns; the RIT is read by ``SegmentedIQ`` dispatch planning, so both
are exercised through the code the simulator runs."""

from repro.common import StatGroup, segmented_iq_params
from repro.core.iq_base import Operand
from repro.core.segmented import PREDICTED_LOAD_LATENCY, SegmentedIQ
from repro.core.segmented.chains import Chain
from repro.core.segmented.kernels import PyKernelEngine
from repro.core.segmented.links import NEVER, CountdownLink, combined_delay
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst


def make_inst(seq=0, opcode=Opcode.ADD, dest=1, srcs=(2, 3)):
    return DynInst(seq=seq, pc=seq,
                   static=Instruction(opcode=opcode, dest=dest, srcs=srcs))


def eligible_at(engine, threshold, now, countdown=-1, chain=None, dh=0):
    """Promote-eligibility cycle of an entry with the given links placed
    in segment 1, whose threshold is ``threshold``."""
    engine.set_threshold(1, threshold)
    cslot = chain.cslot if chain is not None else -1
    slot = engine.insert_entry(object(), 0, 1, countdown, cslot, dh,
                               -1, 0, -1, now)
    return engine.e_elig[slot]


def make_engine():
    return PyKernelEngine(6, 8, [0, 2, 4, 6, 8, 10])


class TestCountdownLink:
    def test_delay_counts_down(self):
        link = CountdownLink(ready_at=10)
        assert link.delay(0) == 10
        assert link.delay(7) == 3
        assert link.delay(15) == 0

    def test_eligible_at(self):
        # delay < 2 when delay <= 1, i.e. at cycle 9.
        assert eligible_at(make_engine(), 2, 0, countdown=10) == 9
        assert eligible_at(make_engine(), 2, 9, countdown=10) == 9
        assert eligible_at(make_engine(), 2, 12, countdown=10) == 12


class TestChainLinkEligibility:
    def test_queued_chain_is_static(self):
        engine = make_engine()
        chain = Chain(0, make_inst(), engine, head_segment=4)
        assert chain.member_delay(2, 0) == 10
        assert eligible_at(engine, 2, 0, chain=chain, dh=2) == NEVER

    def test_queued_chain_below_threshold_is_eligible_now(self):
        engine = make_engine()
        chain = Chain(0, make_inst(), engine, head_segment=0)
        assert eligible_at(engine, 2, 5, chain=chain, dh=1) == 5

    def test_self_timed_chain_predicts_future_eligibility(self):
        engine = make_engine()
        chain = Chain(0, make_inst(), engine, head_segment=0)
        chain.on_head_issued(now=0)
        # delay(3) = 7; < 4 at delay 3, i.e. 4 cycles later.
        assert eligible_at(engine, 4, 3, chain=chain, dh=10) == 7

    def test_suspended_chain_is_static(self):
        engine = make_engine()
        chain = Chain(0, make_inst(), engine, head_segment=0)
        chain.on_head_issued(now=0)
        chain.suspend(now=1)
        assert eligible_at(engine, 4, 5, chain=chain, dh=10) == NEVER


class TestCombined:
    def test_combined_delay_is_max(self):
        links = [CountdownLink(10), CountdownLink(4)]
        assert combined_delay(links, now=0) == 10

    def test_combined_empty_is_zero(self):
        assert combined_delay([], now=0) == 0

    def test_combined_eligible_at_is_max(self):
        # A countdown due at 9 and a self-timed link due at 12: the later
        # one governs.
        engine = make_engine()
        chain = Chain(0, make_inst(), engine, head_segment=0)
        chain.on_head_issued(now=0)
        assert eligible_at(engine, 2, 0, countdown=10, chain=chain,
                           dh=13) == 12

    def test_combined_never_dominates(self):
        engine = make_engine()
        chain = Chain(0, make_inst(), engine, head_segment=5)
        assert eligible_at(engine, 2, 0, countdown=4, chain=chain,
                           dh=3) == NEVER


def make_iq(**kwargs):
    params = segmented_iq_params(128, 32, None, hmp=False, **kwargs)
    return SegmentedIQ(params, issue_width=8, stats=StatGroup())


def dispatch(iq, inst, now=0):
    operands = [Operand(reg=0, ready_cycle=0) for _ in inst.srcs]
    assert iq.can_dispatch(inst)
    return iq.dispatch(inst, operands, now=now)


def links_for(iq, reg, now, seq=100):
    """Dispatch planning of a one-source consumer of ``reg``: the packed
    ``(countdown_ready, chain_pairs)`` it would carry."""
    plan = iq._plan(make_inst(seq, dest=9, srcs=(reg,)), now)
    return plan.countdown_ready, plan.chain_pairs


class TestRegisterInfoTable:
    def test_unknown_register_is_unconstrained(self):
        iq = make_iq()
        assert links_for(iq, 5, now=0) == (-1, [])

    def test_r0_is_always_available(self):
        iq = make_iq()
        dispatch(iq, make_inst(0, Opcode.LD, dest=0, srcs=(0,)))
        assert links_for(iq, 0, now=0) == (-1, [])

    def test_chained_register_yields_chain_link(self):
        iq = make_iq()
        load = dispatch(iq, make_inst(0, Opcode.LD, dest=5, srcs=(0,)))
        chain = load.chain_state.own_chain
        assert chain is not None
        assert links_for(iq, 5, now=0) == (-1, [(chain,
                                                 PREDICTED_LOAD_LATENCY)])
        # Head queued in segment 0: delay 2 * 0 + dh.
        consumer = dispatch(iq, make_inst(1, dest=9, srcs=(5,)))
        assert iq.delay_of(consumer) == PREDICTED_LOAD_LATENCY

    def test_issued_producer_yields_exact_countdown(self):
        iq = make_iq()
        producer = make_inst(0, Opcode.LD, dest=5, srcs=(0,))
        dispatch(iq, producer)
        producer.set_value_ready(20)
        assert links_for(iq, 5, now=10) == (20, [])

    def test_completed_producer_is_unconstrained(self):
        iq = make_iq()
        producer = make_inst(0, dest=5, srcs=(0,))
        dispatch(iq, producer)
        producer.set_value_ready(8)
        assert links_for(iq, 5, now=9) == (-1, [])

    def test_countdown_register(self):
        # A chainless ADD dispatched at 0 is expected at 0 + 1 + 1.
        iq = make_iq()
        dispatch(iq, make_inst(0, dest=5, srcs=(0,)))
        assert links_for(iq, 5, now=0) == (2, [])
        entry = dispatch(iq, make_inst(1, dest=9, srcs=(5,)))
        assert iq.delay_of(entry) == 2

    def test_expired_countdown_is_unconstrained(self):
        iq = make_iq()
        dispatch(iq, make_inst(0, dest=5, srcs=(0,)))
        assert links_for(iq, 5, now=2) == (-1, [])

    def test_freed_chain_falls_back_to_countdown(self):
        iq = make_iq()
        load = make_inst(0, Opcode.LD, dest=5, srcs=(0,))
        entry = dispatch(iq, load)
        chain = entry.chain_state.own_chain
        assert iq.select_issue(1, lambda inst: True) == [entry]
        iq.on_writeback(load, now=2)
        assert chain.freed
        # Self-timed since cycle 1: at cycle 3 the value trails the head
        # by 4 - 2 cycles.
        assert links_for(iq, 5, now=3) == (3 + 2, [])

    def test_overwrite_takes_latest_producer(self):
        iq = make_iq()
        dispatch(iq, make_inst(0, Opcode.MUL, dest=5, srcs=(0,)))
        dispatch(iq, make_inst(1, dest=5, srcs=(0,)))
        # The ADD (ready at 0 + 1 + 1) replaced the MUL (0 + 1 + 3).
        assert links_for(iq, 5, now=0) == (2, [])

    def test_chain_of_reports_live_chain_only(self):
        iq = make_iq()
        producer = make_inst(0, Opcode.LD, dest=5, srcs=(0,))
        entry = dispatch(iq, producer)
        chain = entry.chain_state.own_chain
        assert links_for(iq, 5, now=0, seq=100)[1] == [
            (chain, PREDICTED_LOAD_LATENCY)]
        producer.set_value_ready(5)
        assert links_for(iq, 5, now=0, seq=101) == (5, [])
