"""Ideal monolithic instruction queue.

Models the paper's comparison baseline: a conventional IQ with single-cycle
wakeup/select over *all* entries regardless of size.  Physically
unrealizable at 512 entries (wakeup latency grows quadratically with size,
Palacharla et al.), which is exactly why the paper treats it as an upper
bound.

Selection is oldest-first among ready instructions, constrained only by
issue bandwidth and function-unit availability.
"""

from __future__ import annotations

import heapq
from typing import List

from repro.common.params import IQParams
from repro.common.stats import StatGroup
from repro.core.iq_base import IQEntry, InstructionQueue, Operand
from repro.core.segmented.links import NEVER
from repro.isa.instruction import DynInst


class ConventionalIQ(InstructionQueue):
    """Monolithic, single-cycle, age-ordered instruction queue."""

    def __init__(self, params: IQParams, issue_width: int,
                 stats: StatGroup) -> None:
        super().__init__(params.size)
        self.issue_width = issue_width
        self._occupancy = 0
        # Entries whose readiness cycle is known but lies in the future.
        self._pending: List = []     # heap of (ready_cycle, seq, entry)
        # Entries ready now, ordered oldest-first.
        self._ready: List = []       # heap of (seq, entry)
        self.stat_dispatched = stats.counter("iq.dispatched")
        self.stat_issued = stats.counter("iq.issued")
        self.stat_occupancy = stats.distribution(
            "iq.occupancy", "buffered instructions per issue attempt")
        self.stat_ready = stats.distribution(
            "iq.ready", "issue-ready instructions per issue attempt")

    # ------------------------------------------------------------ space --
    @property
    def occupancy(self) -> int:
        return self._occupancy

    def can_dispatch(self, inst: DynInst) -> bool:
        return self._occupancy < self.size

    # --------------------------------------------------------- dispatch --
    def dispatch(self, inst: DynInst, operands: List[Operand],
                 now: int) -> IQEntry:
        entry = IQEntry(inst, operands)
        entry.queue_cycle = now
        self._occupancy += 1
        self.stat_dispatched.inc()
        if entry.all_sources_known:
            heapq.heappush(self._pending,
                           (max(entry.ready_cycle, now + 1), entry.seq, entry))
        else:
            self.register_operand_wakeups(entry)
        return entry

    def on_entry_ready_known(self, entry: IQEntry) -> None:
        heapq.heappush(self._pending, (entry.ready_cycle, entry.seq, entry))

    # ------------------------------------------------------ event-driven --
    def next_event_cycle(self, now: int) -> int:
        if self._ready:
            return now
        if self._pending:
            return self._pending[0][0]
        return NEVER

    def skip_cycles(self, now: int, count: int) -> None:
        self.stat_occupancy.sample_n(self._occupancy, count)
        self.stat_ready.sample_n(0, count)

    def blocked_dispatch_wake(self, now: int) -> int:
        return NEVER    # occupancy only drops on issue, which is an event

    # ------------------------------------------------------------ issue --
    def select_issue(self, now: int, acquire_fu) -> List[IQEntry]:
        while self._pending and self._pending[0][0] <= now:
            _, seq, entry = heapq.heappop(self._pending)
            heapq.heappush(self._ready, (seq, entry))

        self.stat_occupancy.sample(self._occupancy)
        self.stat_ready.sample(len(self._ready))

        issued: List[IQEntry] = []
        blocked: List = []
        while self._ready and len(issued) < self.issue_width:
            seq, entry = heapq.heappop(self._ready)
            if acquire_fu(entry.inst):
                entry.issued = True
                issued.append(entry)
            else:
                blocked.append((seq, entry))
        for item in blocked:
            heapq.heappush(self._ready, item)
        self._occupancy -= len(issued)
        self.stat_issued.inc(len(issued))
        return issued
