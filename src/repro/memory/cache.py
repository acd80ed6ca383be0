"""Set-associative, non-blocking, write-back cache with MSHRs.

Timing-only model: data values come from the functional simulator, so the
cache tracks tags, LRU state, dirty bits, and miss status holding registers
(MSHRs), but no data.  Misses to the same line merge into one MSHR — the
paper's *delayed hits* ("a load references a block which is in the process
of being fetched", section 6.1).

Each cache talks to the next level through ``access_line`` and receives
fills through a callback; line transfers are serialized on a
:class:`~repro.memory.link.BandwidthLink`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.common.events import EventQueue
from repro.common.params import CacheParams
from repro.common.stats import StatGroup
from repro.memory.link import BandwidthLink
from repro.memory.request import LEVEL_DELAYED, MemRequest

LineCallback = Callable[[str], None]


@dataclass
class _MSHR:
    """One outstanding miss: the line being fetched and who is waiting."""

    line_addr: int
    # (callback, was_merged): merged requesters are the delayed hits.
    waiters: List[Tuple[LineCallback, bool]] = field(default_factory=list)
    any_write: bool = False


class MainMemory:
    """The DRAM end of the hierarchy: fixed latency plus bus serialization."""

    def __init__(self, latency: int, link: BandwidthLink,
                 events: EventQueue, stats: StatGroup) -> None:
        self.latency = latency
        self._link = link           # kept for reference; the requesting
        self._events = events       # cache charges the bus on the fill side
        self._accesses = stats.counter("mem.accesses", "main memory accesses")

    def access_line(self, line_addr: int, is_write: bool,
                    callback: LineCallback, line_bytes: int = 64) -> None:
        """Return the line after the access latency.  Bus occupancy for the
        data transfer is charged by the requesting cache when the fill
        crosses the link, so it is not charged again here."""
        self._accesses.inc()
        self._events.schedule(self.latency, lambda: callback("mem"))


class Cache:
    """One cache level.

    ``classify_delayed`` controls whether merged misses report the special
    ``"delayed"`` level (true for the L1 data cache, where the distinction
    matters to the hit/miss predictor analysis).
    """

    def __init__(self, name: str, params: CacheParams, level_label: str,
                 next_level, link_to_next: BandwidthLink,
                 events: EventQueue, stats: StatGroup, *,
                 classify_delayed: bool = False) -> None:
        params.validate(name)
        self.name = name
        self.params = params
        self.level_label = level_label
        self.next_level = next_level
        self._link = link_to_next
        self._events = events
        self._classify_delayed = classify_delayed

        self._num_sets = params.num_sets
        self._line_shift = params.line_bytes.bit_length() - 1
        # Per set: list of [tag, dirty], most-recently-used first.
        self._sets: List[List[List]] = [[] for _ in range(self._num_sets)]
        self._mshrs: Dict[int, _MSHR] = {}
        # Requests waiting for a free MSHR (back-pressure from next level).
        self._mshr_queue: Deque[Tuple[int, bool, LineCallback]] = deque()
        #: Bumped by every change that can turn a rejected :meth:`access`
        #: into an accepted one (an MSHR freeing, a line becoming
        #: resident); the LSQ compares it to skip provably futile retries.
        self.version = 0

        self.stat_accesses = stats.counter(f"{name}.accesses")
        self.stat_hits = stats.counter(f"{name}.hits")
        self.stat_misses = stats.counter(f"{name}.misses")
        self.stat_delayed_hits = stats.counter(
            f"{name}.delayed_hits", "misses merged into an outstanding MSHR")
        self.stat_writebacks = stats.counter(f"{name}.writebacks")
        self.stat_mshr_full = stats.counter(
            f"{name}.mshr_full_retries", "accesses rejected: all MSHRs busy")

    # ---------------------------------------------------------- geometry --
    def line_addr(self, addr: int) -> int:
        return addr >> self._line_shift

    def _set_index(self, line_addr: int) -> int:
        return line_addr % self._num_sets

    # ------------------------------------------------------------ lookup --
    def _find_no_lru(self, line_addr: int) -> Optional[List]:
        """Residence check without touching LRU state."""
        for entry in self._sets[self._set_index(line_addr)]:
            if entry[0] == line_addr:
                return entry
        return None

    def _find(self, line_addr: int) -> Optional[List]:
        """Return the [tag, dirty] entry if resident, updating LRU order."""
        cache_set = self._sets[self._set_index(line_addr)]
        for position, entry in enumerate(cache_set):
            if entry[0] == line_addr:
                if position:
                    cache_set.pop(position)
                    cache_set.insert(0, entry)
                return entry
        return None

    def contains(self, addr: int) -> bool:
        """Non-destructive residence check (no LRU update) for tests."""
        line = self.line_addr(addr)
        return any(entry[0] == line
                   for entry in self._sets[self._set_index(line)])

    def would_hit(self, addr: int) -> bool:
        """Would an access to ``addr`` hit right now (resident, not in-flight)?

        Used by the processor to give the hit/miss predictor its training
        signal at the time the prediction is resolved.
        """
        return self.contains(addr)

    def touch(self, addr: int) -> bool:
        """Probe for ``addr``: on a hit, update LRU and count it; on a miss,
        return False without allocating anything.  The fetch unit uses this
        to test line availability before committing to a fill request.
        """
        if self._find(self.line_addr(addr)) is not None:
            self.stat_accesses.inc()
            self.stat_hits.inc()
            return True
        return False

    # ------------------------------------------------------------ access --
    def rejects(self, addr: int) -> bool:
        """Would :meth:`access` to ``addr`` be rejected right now (all
        MSHRs busy, line neither resident nor in flight)?  A rejection is
        counted in ``mshr_full_retries`` exactly as :meth:`access` counts
        it, without building a request."""
        if len(self._mshrs) < self.params.mshr_entries:
            return False
        line = self.line_addr(addr)
        if line in self._mshrs or self._find_no_lru(line) is not None:
            return False
        self.stat_mshr_full.inc()
        return True

    def access(self, request: MemRequest) -> bool:
        """Core-side access.  Returns False if the request must retry
        (no MSHR available for a new miss).  Rejected attempts are not
        counted as accesses, so replays do not inflate the access stats."""
        if self.rejects(request.addr):
            return False
        line = self.line_addr(request.addr)
        self.stat_accesses.inc()
        request.issued_cycle = self._events.now

        entry = self._find(line)
        if entry is not None:
            self.stat_hits.inc()
            if request.is_write:
                entry[1] = True
            now = self._events
            self._events.schedule(
                self.params.hit_latency,
                lambda: request.complete(self.level_label, now.now))
            return True

        if line in self._mshrs:
            # Delayed hit: merge into the outstanding miss.
            self.stat_delayed_hits.inc()
            request.notify_miss()
            mshr = self._mshrs[line]
            mshr.any_write = mshr.any_write or request.is_write
            level = LEVEL_DELAYED if self._classify_delayed else self.level_label
            events = self._events
            mshr.waiters.append(
                (lambda lvl, req=request, level=level:
                 req.complete(level, events.now), True))
            return True

        self.stat_misses.inc()
        request.notify_miss()
        events = self._events
        self._allocate_mshr(
            line, request.is_write,
            lambda lvl, req=request: req.complete(lvl, events.now))
        return True

    def access_line(self, line_byte_addr: int, is_write: bool,
                    callback: LineCallback, line_bytes: int = 64) -> None:
        """Upper-level access (line granularity).  Queues if MSHRs are full."""
        self.stat_accesses.inc()
        line = self.line_addr(line_byte_addr)

        entry = self._find(line)
        if entry is not None:
            self.stat_hits.inc()
            if is_write:
                entry[1] = True
            delay = self.params.hit_latency + self._return_delay()
            self._events.schedule(delay, lambda: callback(self.level_label))
            return

        if line in self._mshrs:
            self.stat_delayed_hits.inc()
            mshr = self._mshrs[line]
            mshr.any_write = mshr.any_write or is_write
            mshr.waiters.append((callback, True))
            return

        if len(self._mshrs) >= self.params.mshr_entries:
            self.stat_mshr_full.inc()
            self._mshr_queue.append((line, is_write, callback))
            return

        self.stat_misses.inc()
        self._allocate_mshr(line, is_write, callback)

    def _return_delay(self) -> int:
        """Delay to send a line back up to the requester (0 for the L1s,
        whose hit latency already includes data return)."""
        return 0

    # ------------------------------------------------------------- fills --
    def _allocate_mshr(self, line: int, is_write: bool,
                       callback: LineCallback) -> None:
        mshr = _MSHR(line_addr=line, any_write=is_write)
        mshr.waiters.append((callback, False))
        self._mshrs[line] = mshr
        # Tag lookup consumed hit_latency before the miss goes downstream.
        self._events.schedule(
            self.params.hit_latency,
            lambda: self.next_level.access_line(
                line << self._line_shift, False,
                lambda level, l=line: self._fill_arrived(l, level),
                self.params.line_bytes))

    def _fill_arrived(self, line: int, fill_level: str) -> None:
        """The next level produced the line; move it over the link, then
        install it and wake all waiters."""
        delay = self._link.request(self.params.line_bytes)
        self._events.schedule(delay, lambda: self._install(line, fill_level))

    def _install(self, line: int, fill_level: str) -> None:
        self.version += 1
        mshr = self._mshrs.pop(line)
        cache_set = self._sets[self._set_index(line)]
        if len(cache_set) >= self.params.assoc:
            victim = cache_set.pop()
            if victim[1]:
                self.stat_writebacks.inc()
                self._link.request(self.params.line_bytes)
        cache_set.insert(0, [line, mshr.any_write])
        for callback, merged in mshr.waiters:
            callback(fill_level)
        self._drain_mshr_queue()

    def _drain_mshr_queue(self) -> None:
        while self._mshr_queue and len(self._mshrs) < self.params.mshr_entries:
            line, is_write, callback = self._mshr_queue.popleft()
            if self._find(line) is not None:
                # Filled while queued: a (late) hit.
                self.stat_hits.inc()
                delay = self.params.hit_latency + self._return_delay()
                self._events.schedule(
                    delay, lambda cb=callback: cb(self.level_label))
            elif line in self._mshrs:
                self.stat_delayed_hits.inc()
                self._mshrs[line].waiters.append((callback, True))
            else:
                self.stat_misses.inc()
                self._allocate_mshr(line, is_write, callback)

    # --------------------------------------------------------- warm state --
    def tag_state(self) -> List[List[List]]:
        """Tag/LRU/dirty state as plain data: per set, MRU-first
        ``[line_addr, dirty]`` pairs.  In-flight MSHR state is deliberately
        not captured — checkpoints are taken at quiesced (functional)
        points where no misses are outstanding.
        """
        return [[list(entry) for entry in cache_set]
                for cache_set in self._sets]

    def load_tag_state(self, sets: List[List[List]]) -> None:
        """Install tag state captured by :meth:`tag_state` (or produced by
        functional warming).  Stats and MSHRs are untouched."""
        if len(sets) != self._num_sets:
            raise ValueError(f"{self.name}: snapshot has {len(sets)} sets, "
                             f"this cache has {self._num_sets}")
        self.version += 1
        self._sets = [[list(entry)[:2] for entry in cache_set]
                      for cache_set in sets]

    # ------------------------------------------------------------- admin --
    def warm_line(self, addr: int, dirty: bool = False) -> None:
        """Pre-install the line containing ``addr`` (for tests/warmup)."""
        line = self.line_addr(addr)
        if self._find(line) is not None:
            return
        self.version += 1
        cache_set = self._sets[self._set_index(line)]
        if len(cache_set) >= self.params.assoc:
            cache_set.pop()
        cache_set.insert(0, [line, dirty])

    @property
    def outstanding_misses(self) -> int:
        return len(self._mshrs)
