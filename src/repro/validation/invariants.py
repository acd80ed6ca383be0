"""Per-cycle pipeline invariant checking.

The checker is wired into :class:`repro.pipeline.processor.Processor` when
``ProcessorParams.check_invariants`` is set (or ``--check-invariants`` on
the CLI).  Each cycle it calls the lightweight ``check()`` hooks on the
ROB, LSQ, and IQ, and layers cross-structure and cross-cycle checks on
top:

* **ROB/IQ membership agreement** — every buffered (un-issued) IQ entry
  must still be in its thread's ROB;
* **monotonic pushdown** — an entry's segment index only decreases over
  time (instructions move *toward* issue), except in the cycle a deadlock
  recovery recycles segment-0 entries to the top;
* **delay monotonicity** — an entry's combined delay value never grows
  (queued heads only promote downward; self-timed chains count down;
  suspension freezes), again modulo deadlock recovery;
* **no issue of non-ready instructions** — anything the IQ hands to the
  execution stage must have every operand ready-time known and elapsed.

Everything here is deliberately O(buffered instructions) per cycle and
runs only under validation, never in benchmark configurations.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.errors import InvariantViolation
from repro.core.iq_base import IQEntry
from repro.core.segmented.links import combined_delay


class InvariantChecker:
    """Cross-structure and cross-cycle pipeline invariants."""

    def __init__(self, processor) -> None:
        self.processor = processor
        self.checks_run = 0
        # seq -> segment index at the previous check (segmented IQ only).
        self._last_segment: Dict[int, int] = {}
        # seq -> combined delay value at the previous check.
        self._last_delay: Dict[int, int] = {}
        self._last_recoveries = 0

    # -------------------------------------------------------- per cycle --
    def check(self, now: int) -> None:
        """Run every invariant against the current pipeline state."""
        processor = self.processor
        self.checks_run += 1
        for rob in processor.robs:
            rob.check(now)
        processor.lsq.check(now)
        iq = processor.iq
        iq.check(now)
        self._check_membership(iq, processor.robs, now)
        self._check_segment_monotonicity(iq, now)

    def _check_membership(self, iq, robs, now: int) -> None:
        """Every buffered IQ entry must still be tracked by a ROB."""
        entries = list(iq.iter_entries())
        if not entries:
            return
        rob_seqs = {inst.seq for rob in robs for inst in rob.members()}
        for entry in entries:
            if entry.seq not in rob_seqs:
                raise InvariantViolation(
                    f"IQ entry #{entry.seq} is not in the ROB at "
                    f"cycle {now} (dropped or double-committed)")

    def _check_segment_monotonicity(self, iq, now: int) -> None:
        """Entries move only toward segment 0 and their delay values only
        shrink — except across a deadlock-recovery cycle, which recycles
        wedged segment-0 entries back to the top on purpose."""
        stat = getattr(iq, "stat_deadlocks", None)
        if stat is None:
            return                      # not a segmented IQ
        recovered = stat.value != self._last_recoveries
        self._last_recoveries = stat.value
        segments: Dict[int, int] = {}
        delays: Dict[int, int] = {}
        for entry in iq.iter_entries():
            segment = iq.segment_of(entry)
            segments[entry.seq] = segment
            delay = combined_delay(entry.chain_state.links, now)
            delays[entry.seq] = delay
            if recovered:
                continue          # state still recorded; comparisons skipped
            previous_segment = self._last_segment.get(entry.seq)
            if previous_segment is not None and segment > previous_segment:
                raise InvariantViolation(
                    f"entry #{entry.seq} moved up from segment "
                    f"{previous_segment} to {segment} at cycle {now} "
                    f"without a deadlock recovery")
            previous_delay = self._last_delay.get(entry.seq)
            if previous_delay is not None and delay > previous_delay:
                raise InvariantViolation(
                    f"entry #{entry.seq} delay grew from {previous_delay} "
                    f"to {delay} at cycle {now} without a deadlock recovery")
        self._last_segment = segments
        self._last_delay = delays

    # ----------------------------------------------------------- issue --
    def check_issue(self, entry: IQEntry, now: int) -> None:
        """An issued instruction must have been genuinely ready."""
        if not entry.all_sources_known:
            raise InvariantViolation(
                f"#{entry.seq} issued at cycle {now} with "
                f"{entry.unknown_count} operand ready-times still unknown")
        if entry.ready_cycle > now:
            raise InvariantViolation(
                f"#{entry.seq} issued at cycle {now} but is not ready "
                f"until cycle {entry.ready_cycle}")
