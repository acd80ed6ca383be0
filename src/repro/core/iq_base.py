"""Common instruction-queue machinery shared by every IQ design.

All queue designs — the ideal monolithic IQ, the paper's segmented IQ, the
Michaud–Seznec prescheduler, and the Palacharla FIFOs — present the same
interface to the processor: dispatch, per-cycle maintenance, and issue
selection.  The differences are entirely in *which* buffered instructions
the wakeup/select logic may consider each cycle.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional

from repro.isa.instruction import DynInst


@dataclass(slots=True)
class Operand:
    """One IQ-relevant source operand, resolved by the renamer.

    ``producer`` is the in-flight producing instruction (None if the value
    is architecturally available).  ``ready_cycle`` is the cycle the value
    is known to become available, or None if not yet known (the producer
    has not issued / the load has not returned).  ``penalty`` is the extra
    forwarding delay this consumer sees (e.g. a cross-cluster bypass); it
    is already folded into ``ready_cycle`` when that is known, and is
    applied to late wakeups otherwise.
    """

    reg: int
    producer: Optional[DynInst] = None
    ready_cycle: Optional[int] = 0
    penalty: int = 0


class IQEntry:
    """One instruction-queue slot.

    The base fields implement conventional wakeup (operand readiness).  The
    segmented IQ extends entries with chain state via ``chain_state``.
    """

    __slots__ = ("inst", "seq", "operands", "ready_cycle", "unknown_count",
                 "issued", "chain_state", "segment", "queue_cycle")

    def __init__(self, inst: DynInst, operands: List[Operand]) -> None:
        self.inst = inst
        self.seq = inst.seq
        self.operands = operands
        self.issued = False
        self.chain_state = None      # used by the segmented IQ
        self.segment = -1            # placement marker (see segment_of)
        self.queue_cycle = -1
        self.unknown_count = 0
        ready = 0
        for operand in operands:
            if operand.ready_cycle is None:
                self.unknown_count += 1
            elif operand.ready_cycle > ready:
                ready = operand.ready_cycle
        # Cycle at which every operand is available; meaningless until
        # unknown_count drops to zero.
        self.ready_cycle = ready

    def source_known(self, index: int, cycle: int) -> bool:
        """Record that operand ``index`` becomes ready at ``cycle``
        (plus any forwarding penalty the operand carries).

        Returns True if the entry's full readiness is now known.
        """
        cycle += self.operands[index].penalty
        self.operands[index].ready_cycle = cycle
        if cycle > self.ready_cycle:
            self.ready_cycle = cycle
        self.unknown_count -= 1
        return self.unknown_count == 0

    @property
    def all_sources_known(self) -> bool:
        return self.unknown_count == 0

    def __repr__(self) -> str:
        return (f"IQEntry(#{self.seq} {self.inst.static} "
                f"ready={self.ready_cycle if self.all_sources_known else '?'})")


class InstructionQueue(abc.ABC):
    """Interface every IQ design implements."""

    def __init__(self, size: int) -> None:
        self.size = size
        #: Number of instructions in execution (set by the processor each
        #: cycle; used by the segmented IQ's deadlock detector).
        self.in_flight = 0
        #: Cycle of the most recent commit (set by the processor), used by
        #: the deadlock detector's livelock backstop.
        self.last_commit_cycle = 0
        #: True when the last can_dispatch refusal was due to chain-wire
        #: exhaustion rather than queue capacity.
        self.blocked_on_chain = False
        #: Observability sink (see :mod:`repro.obs`); ``None`` disables
        #: tracing and every emission site guards on it.
        self.tracer = None

    def attach_tracer(self, tracer) -> None:
        """Install an event sink; designs with sub-components override to
        propagate it (the segmented IQ hands it to its chain manager)."""
        self.tracer = tracer

    # -------------------------------------------------------- dispatch --
    @abc.abstractmethod
    def can_dispatch(self, inst: DynInst) -> bool:
        """Is there room (and, for the segmented IQ, a chain wire if this
        instruction needs one)?"""

    @abc.abstractmethod
    def dispatch(self, inst: DynInst, operands: List[Operand],
                 now: int) -> IQEntry:
        """Insert the instruction; wire up wakeup on unknown operands."""

    # ----------------------------------------------------------- timing --
    def cycle(self, now: int) -> None:
        """Per-cycle internal maintenance (promotion, signal delivery)."""

    @abc.abstractmethod
    def select_issue(self, now: int, acquire_fu) -> List[IQEntry]:
        """Choose up to issue-width ready instructions for this cycle.

        ``acquire_fu(inst) -> bool`` atomically checks issue bandwidth and
        function-unit availability and claims them on success.
        """

    # ----------------------------------------------- event-driven hooks --
    # The processor's skip-ahead loop (docs/performance.md) asks every
    # component when it next needs a cycle.  The defaults are maximally
    # conservative — "I may act right now" — so an IQ design that does not
    # implement the protocol simply disables skipping without changing
    # behavior.

    def next_event_cycle(self, now: int) -> int:
        """Earliest cycle at which this queue may act or mutate state.

        A return value ``<= now`` means the current cycle is active and
        must be simulated normally; a later value promises that every
        cycle before it is a pure no-op for this component (no issue, no
        promotion, no stat change beyond what :meth:`skip_cycles`
        replays).  Designs that cannot prove quiescence keep this
        default.
        """
        return now

    def skip_cycles(self, now: int, count: int) -> None:
        """Replay the per-cycle bookkeeping of ``count`` quiescent cycles
        starting at ``now`` (stat samples, clock advancement) in O(1).
        Only called when :meth:`next_event_cycle` returned a cycle past
        the whole stretch."""

    def skip_blocked_dispatch(self, count: int) -> None:
        """Replay the per-cycle side effects of ``count`` additional
        refused ``can_dispatch`` probes during a dispatch-blocked
        quiescent stretch (the probe itself covered the first cycle)."""

    def blocked_dispatch_wake(self, now: int) -> int:
        """Earliest cycle at which a just-refused ``can_dispatch`` could
        flip to True *without* any event firing.  The conservative
        default assumes next cycle; designs whose dispatch admission only
        changes through events (issue, writeback, promotion — all of
        which already wake the processor) override with NEVER."""
        return now + 1

    # ------------------------------------------------------------ hooks --
    def check(self, now: int) -> None:
        """Validate internal invariants; raise InvariantViolation on a bug.

        Called once per cycle by the invariant checker when
        ``ProcessorParams.check_invariants`` is set; designs override to add
        structure-specific checks.  The default validates only the generic
        occupancy bound.
        """
        from repro.common.errors import InvariantViolation
        if not 0 <= self.occupancy <= self.size:
            raise InvariantViolation(
                f"IQ occupancy {self.occupancy} outside [0, {self.size}] "
                f"at cycle {now}")

    def iter_entries(self):
        """Iterate the currently buffered (un-issued) entries, if the
        design tracks them individually.  Designs that can enumerate their
        live entries override this; the invariant checker uses it for the
        ROB/IQ membership agreement check."""
        return iter(())

    def segment_of(self, entry: IQEntry) -> int:
        """The entry's placement marker for tracing and invariant checks:
        its own ``entry.segment`` field here; the segmented IQ overrides
        it with the segment its engine records."""
        return entry.segment

    def notify_load_miss(self, inst: DynInst, now: int) -> None:
        """A load detected a cache miss (segmented IQ: suspend self-timing)."""

    def notify_load_complete(self, inst: DynInst, now: int) -> None:
        """A load's data returned (segmented IQ: resume self-timing)."""

    def on_writeback(self, inst: DynInst, now: int) -> None:
        """An instruction wrote back (segmented IQ: free its chain)."""

    # ------------------------------------------------------------ state --
    @property
    @abc.abstractmethod
    def occupancy(self) -> int:
        """Number of instructions currently buffered."""

    @property
    def free_slots(self) -> int:
        return self.size - self.occupancy

    def register_operand_wakeups(self, entry: IQEntry) -> None:
        """Subscribe the entry to producers whose latency is unknown."""
        for index, operand in enumerate(entry.operands):
            if operand.ready_cycle is None:
                self._subscribe(entry, index, operand.producer)

    def _subscribe(self, entry: IQEntry, index: int,
                   producer: DynInst) -> None:
        # Registered as a (queue, entry, index) triple rather than a
        # closure: DynInst.set_value_ready dispatches triples inline,
        # keeping the per-operand subscription allocation-free.
        producer.waiters.append((self, entry, index))

    def on_entry_ready_known(self, entry: IQEntry) -> None:
        """Called when all of an entry's operand ready-times become known.
        Designs override to move the entry into their ready structures."""
