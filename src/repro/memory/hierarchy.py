"""Assembles the full memory hierarchy from Table 1 parameters.

Layout::

    L1I --\\
           >--- (64 B/cyc link) --- L2 --- (8 B/cyc link) --- main memory
    L1D --/
"""

from __future__ import annotations

from repro.common.events import EventQueue
from repro.common.params import MemoryParams
from repro.common.stats import StatGroup
from repro.memory.cache import Cache, MainMemory
from repro.memory.link import BandwidthLink
from repro.memory.request import MemRequest


class MemoryHierarchy:
    """L1 instruction cache, L1 data cache, unified L2, main memory."""

    def __init__(self, params: MemoryParams, events: EventQueue,
                 stats: StatGroup) -> None:
        params.validate()
        self.params = params
        self.events = events

        memory_link = BandwidthLink(
            "link.mem", params.memory_bandwidth_bytes, events, stats)
        self.main_memory = MainMemory(params.main_memory_latency, events,
                                      stats)

        l2_link = BandwidthLink(
            "link.l2", params.l2_bandwidth_bytes, events, stats)
        self.l2 = Cache("l2", params.l2, "l2", self.main_memory,
                        memory_link, events, stats)

        self.l1d = Cache("l1d", params.l1d, "l1", self.l2, l2_link,
                         events, stats, classify_delayed=True)
        self.l1i = Cache("l1i", params.l1i, "l1", self.l2, l2_link,
                         events, stats)

    def data_access(self, request: MemRequest) -> bool:
        """Issue a data access; False means retry later (MSHRs full)."""
        return self.l1d.access(request)

    def inst_access(self, request: MemRequest) -> bool:
        """Issue an instruction fetch access."""
        return self.l1i.access(request)

    def would_hit_l1d(self, addr: int) -> bool:
        """Is ``addr`` resident in the L1 data cache right now?"""
        return self.l1d.would_hit(addr)
