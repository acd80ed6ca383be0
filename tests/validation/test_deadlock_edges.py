"""Edge cases for deadlock detection/recovery in the segmented IQ
(paper section 4.5): a completely wedged queue must trigger recovery,
and recovery must drain every instruction — none lost, none duplicated."""

from repro.common import StatGroup
from repro.core.iq_base import Operand
from repro.core.segmented import SegmentedIQ
from repro.harness import configs
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst


def make_iq(size=4, segment_size=2):
    params = configs.segmented(size, None, segment_size=segment_size).iq
    return SegmentedIQ(params, issue_width=4, stats=StatGroup())


def blocked_inst(seq, producer):
    """An ADD whose operand's ready time is unknown (producer in flight)."""
    inst = DynInst(seq=seq, pc=seq, static=Instruction(
        opcode=Opcode.ADD, dest=2, srcs=(1, 0)))
    return inst, [Operand(reg=1, producer=producer, ready_cycle=None)]


def producer_inst(seq=100):
    return DynInst(seq=seq, pc=seq, static=Instruction(
        opcode=Opcode.ADD, dest=1, srcs=(0, 0)))


def wedge_queue(iq, producer, count=4):
    """Fill every slot with instructions waiting on ``producer``."""
    entries = []
    for seq in range(count):
        inst, operands = blocked_inst(seq, producer)
        assert iq.can_dispatch(inst)
        entries.append(iq.dispatch(inst, operands, now=0))
    return entries


class TestStrictDeadlockCondition:
    def test_full_wedged_queue_triggers_recovery(self):
        iq = make_iq()
        producer = producer_inst()
        wedge_queue(iq, producer)
        assert iq.occupancy == iq.size
        iq.in_flight = 0                 # nothing in execution
        iq.last_commit_cycle = 0
        iq.select_issue(1, lambda inst: True)
        iq.cycle(1)
        assert iq.stats.get("iq.deadlock_recoveries") == 1

    def test_no_recovery_while_loads_outstanding(self):
        iq = make_iq()
        wedge_queue(iq, producer_inst())
        iq.in_flight = 1                 # an outstanding load: wait for it
        iq.last_commit_cycle = 0
        iq.select_issue(1, lambda inst: True)
        iq.cycle(1)
        assert iq.stats.get("iq.deadlock_recoveries") == 0

    def test_recovery_preserves_every_instruction(self):
        iq = make_iq()
        producer = producer_inst()
        wedge_queue(iq, producer)
        before = sorted(entry.seq for entry in iq.iter_entries())
        iq.in_flight = 0
        iq.select_issue(1, lambda inst: True)
        iq.cycle(1)
        after = sorted(entry.seq for entry in iq.iter_entries())
        assert after == before, "recovery must not lose or duplicate"
        assert iq.occupancy == len(before)
        iq.check(now=1)                  # structures stay self-consistent

    def test_queue_drains_completely_after_recovery(self):
        iq = make_iq()
        producer = producer_inst()
        wedge_queue(iq, producer)
        iq.in_flight = 0
        iq.select_issue(1, lambda inst: True)
        iq.cycle(1)
        assert iq.stats.get("iq.deadlock_recoveries") >= 1
        # The producer finally writes back: everything wakes up.
        producer.set_value_ready(2)
        issued = []
        for now in range(2, 40):
            issued += iq.select_issue(now, lambda inst: True)
            iq.in_flight = 0
            iq.cycle(now)
            if iq.occupancy == 0:
                break
        assert iq.occupancy == 0
        assert sorted(entry.seq for entry in issued) == [0, 1, 2, 3]


class TestPatienceBackstop:
    def test_livelock_with_inflight_load_eventually_recovers(self):
        """The strict condition never sees a livelock with a load stuck in
        flight; the patience backstop must break it anyway."""
        iq = make_iq()
        wedge_queue(iq, producer_inst())
        iq.in_flight = 1                 # perpetually outstanding
        iq.last_commit_cycle = 0
        fired_at = None
        for now in range(1, iq.NO_ISSUE_PATIENCE + 10):
            iq.select_issue(now, lambda inst: True)
            iq.in_flight = 1
            iq.cycle(now)
            if iq.stats.get("iq.deadlock_recoveries"):
                fired_at = now
                break
        assert fired_at is not None
        assert fired_at > iq.NO_ISSUE_PATIENCE

    def test_commits_keep_resetting_patience(self):
        iq = make_iq()
        wedge_queue(iq, producer_inst())
        for now in range(1, 50):
            iq.select_issue(now, lambda inst: True)
            iq.in_flight = 1
            iq.last_commit_cycle = now   # the ROB is still making progress
            iq.cycle(now)
        assert iq.stats.get("iq.deadlock_recoveries") == 0
