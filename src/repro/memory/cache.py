"""Set-associative, non-blocking, write-back cache with MSHRs.

Timing-only model: data values come from the functional simulator, so the
cache tracks tags, LRU state, dirty bits, and miss status holding registers
(MSHRs), but no data.  Misses to the same line merge into one MSHR — the
paper's *delayed hits* ("a load references a block which is in the process
of being fetched", section 6.1).

The tag store is one flat ``array('q')``, ``Cache._tags``, of
``num_sets * assoc`` slots: each set's slots hold its lines most recently
used first as ``line << 1 | dirty``, and -1 marks an empty slot (a set's
empty slots trail its lines).  A cache of any size is then one object,
which the cyclic garbage collector never walks.

No access sets a dirty bit below the L1s: :meth:`Cache._request_line`
asks the next level with ``is_write=False`` even for a store's miss, and
a dirty L1D victim's write-back only reserves the link
(``_link.request``) without writing the L2.  So only
``warm_line(addr, dirty=True)`` makes an L2 line dirty, and
``l2.writebacks`` is 0 on every benchmark cell.  This is a known gap of
the model (ROADMAP item 6); closing it moves stats.

Each cache talks to the next level through ``access_line`` and receives
fills through a *waiter*, a pair ``(callback, arg)`` answered as
``callback(arg, level)``; line transfers are serialized on a
:class:`~repro.memory.link.BandwidthLink`.  Every event a cache schedules
is a typed record on one of its methods (``_request_line``,
``_install``, ``_return_line``, ``_request_hit``).  The core reaches the
caches with a :class:`~repro.memory.request.MemRequest` (instruction
fetch and store writes, through :meth:`Cache.access`), except for
loads: the LSQ runs the L1D's core-side load access itself on this
cache's state (:meth:`repro.pipeline.lsq.LoadStoreQueue._issue_to_cache`),
with no request object, and parks each missing load in an MSHR as the
waiter ``(completion, lsq_entry)``.

On the compiled event queue the processor binds a compiled twin
(``_ckernels.CacheStage``) to each cache and to main memory as
``_c_stage``: :meth:`Cache.touch`, :meth:`~Cache.access`,
:meth:`~Cache.access_line`, :meth:`~Cache._fill_arrived`,
:meth:`~Cache.warm_line` and :meth:`MainMemory.access_line` stay the
entry points and hand it their bodies, and it runs everything below
them on this module's state (``_tags``, ``_mshrs`` with their
:class:`_MSHR` records, ``_mshr_queue``, ``version`` and the link's
``_next_free``), its events being the same records on its own methods
of the same names.  The stage works on ``_tags`` through a buffer
export that it holds while bound, so the array cannot be resized under
it (``_tags.append`` raises ``BufferError``).  A line still travels
between levels through the next level's ``access_line`` and the
requester's ``_fill_arrived``.
The Python bodies here are the py backend and the reference the parity
tests compare with.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Tuple

from repro.common.events import EventQueue
from repro.common.params import CacheParams
from repro.common.stats import StatGroup
from repro.memory.link import BandwidthLink
from repro.memory.request import LEVEL_DELAYED, MemRequest

#: ``(callback, arg)``: told where a line came from as ``callback(arg,
#: level)``.
Waiter = Tuple[Callable[[Any, str], None], Any]


def _answer(waiter: Waiter, level: str) -> None:
    callback, arg = waiter
    callback(arg, level)


@dataclass(slots=True)
class _MSHR:
    """One outstanding miss: the line being fetched, who is waiting, and
    (once the next level answered) where the line came from."""

    line_addr: int
    waiters: List[Waiter] = field(default_factory=list)
    any_write: bool = False
    fill_level: str = ""


class MainMemory:
    """The DRAM end of the hierarchy: fixed latency.  Bus occupancy for
    the data transfer is charged by the requesting cache when the fill
    crosses the link."""

    def __init__(self, latency: int, events: EventQueue,
                 stats: StatGroup) -> None:
        self.latency = latency
        self._events = events
        self._accesses = stats.counter("mem.accesses", "main memory accesses")
        #: The compiled twin (``_ckernels.CacheStage``), bound by the
        #: processor on the compiled event queue; ``None`` runs the
        #: Python bodies.
        self._c_stage = None

    def access_line(self, line_addr: int, is_write: bool,
                    waiter: Waiter) -> None:
        """Answer ``waiter`` with the line after the access latency."""
        stage = self._c_stage
        if stage is not None:
            stage.access_line(line_addr, is_write, waiter)
            return
        self._accesses.inc()
        self._events.schedule(self.latency, self._return_line, waiter)

    def _return_line(self, waiter: Waiter, cycle: int) -> None:
        _answer(waiter, "mem")


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
        self._assoc = params.assoc
        self._line_shift = params.line_bytes.bit_length() - 1
        #: The tag store: set ``s`` is slots ``s * assoc`` onwards, most
        #: recently used first, each ``line << 1 | dirty`` or -1 (empty).
        self._tags = array("q", [-1]) * (self._num_sets * self._assoc)
        self._mshrs: Dict[int, _MSHR] = {}
        # Requests waiting for a free MSHR (back-pressure from next level).
        self._mshr_queue: Deque[Tuple[int, bool, Waiter]] = deque()
        #: Bumped by every change that can turn a rejected :meth:`access`
        #: into an accepted one (an MSHR freeing, a line becoming
        #: resident); the LSQ compares it to skip provably futile retries.
        self.version = 0
        #: The compiled twin (``_ckernels.CacheStage``), bound by the
        #: processor on the compiled event queue: :meth:`touch`,
        #: :meth:`access`, :meth:`access_line`, :meth:`_fill_arrived` and
        #: :meth:`warm_line` hand it their bodies.  ``None`` runs the
        #: Python bodies.
        self._c_stage = None

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
    def _find_no_lru(self, line_addr: int) -> int:
        """The slot holding ``line_addr``, or -1 when it is not resident;
        the LRU order stays as it is."""
        tags = self._tags
        base = self._set_index(line_addr) * self._assoc
        for slot in range(base, base + self._assoc):
            if tags[slot] >> 1 == line_addr:
                return slot
        return -1

    def _find(self, line_addr: int) -> int:
        """The slot holding ``line_addr`` once it moved to the front of its
        set (most recently used), or -1 when it is not resident."""
        tags = self._tags
        base = self._set_index(line_addr) * self._assoc
        for slot in range(base, base + self._assoc):
            tag = tags[slot]
            if tag >> 1 == line_addr:
                while slot > base:
                    tags[slot] = tags[slot - 1]
                    slot -= 1
                tags[base] = tag
                return base
        return -1

    def _insert(self, line: int, dirty: bool) -> int:
        """Put ``line`` at the front of its set, dropping the set's least
        recently used line when the set is full; returns the dropped
        slot's value (-1: none)."""
        tags = self._tags
        base = self._set_index(line) * self._assoc
        slot = base + self._assoc - 1
        victim = tags[slot]
        while slot > base:
            tags[slot] = tags[slot - 1]
            slot -= 1
        tags[base] = line << 1 | (1 if dirty else 0)
        return victim

    def contains(self, addr: int) -> bool:
        """Non-destructive residence check (no LRU update) for tests."""
        return self._find_no_lru(self.line_addr(addr)) >= 0

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
        stage = self._c_stage
        if stage is not None:
            return stage.touch(addr)
        if self._find(self.line_addr(addr)) >= 0:
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
        if line in self._mshrs or self._find_no_lru(line) >= 0:
            return False
        self.stat_mshr_full.inc()
        return True

    def access(self, request: MemRequest) -> bool:
        """Core-side access.  Returns False if the request must retry
        (no MSHR available for a new miss).  Rejected attempts are not
        counted as accesses, so replays do not inflate the access stats."""
        stage = self._c_stage
        if stage is not None:
            return stage.access(request)
        if self.rejects(request.addr):
            return False
        line = self.line_addr(request.addr)
        self.stat_accesses.inc()

        slot = self._find(line)
        if slot >= 0:
            self.stat_hits.inc()
            if request.is_write:
                self._tags[slot] |= 1
            self._events.schedule(self.params.hit_latency,
                                  self._request_hit, request)
            return True

        if line in self._mshrs:
            # Delayed hit: merge into the outstanding miss.
            self.stat_delayed_hits.inc()
            request.notify_miss()
            mshr = self._mshrs[line]
            mshr.any_write = mshr.any_write or request.is_write
            mshr.waiters.append((self._request_merged, request))
            return True

        self.stat_misses.inc()
        request.notify_miss()
        self._allocate_mshr(line, request.is_write,
                            (self._request_filled, request))
        return True

    def _request_hit(self, request: MemRequest, cycle: int) -> None:
        request.complete(self.level_label, cycle)

    def _request_filled(self, request: MemRequest, level: str) -> None:
        request.complete(level, self._events.now)

    def _request_merged(self, request: MemRequest, level: str) -> None:
        request.complete(LEVEL_DELAYED if self._classify_delayed
                         else self.level_label, self._events.now)

    def access_line(self, line_byte_addr: int, is_write: bool,
                    waiter: Waiter) -> None:
        """Upper-level access (line granularity).  Queues if MSHRs are full."""
        stage = self._c_stage
        if stage is not None:
            stage.access_line(line_byte_addr, is_write, waiter)
            return
        self.stat_accesses.inc()
        line = self.line_addr(line_byte_addr)

        slot = self._find(line)
        if slot >= 0:
            self.stat_hits.inc()
            if is_write:
                self._tags[slot] |= 1
            self._events.schedule(self.params.hit_latency, self._return_line,
                                  waiter)
            return

        if line in self._mshrs:
            self.stat_delayed_hits.inc()
            mshr = self._mshrs[line]
            mshr.any_write = mshr.any_write or is_write
            mshr.waiters.append(waiter)
            return

        if len(self._mshrs) >= self.params.mshr_entries:
            self.stat_mshr_full.inc()
            self._mshr_queue.append((line, is_write, waiter))
            return

        self.stat_misses.inc()
        self._allocate_mshr(line, is_write, waiter)

    def _return_line(self, waiter: Waiter, cycle: int) -> None:
        _answer(waiter, self.level_label)

    # ------------------------------------------------------------- fills --
    def _allocate_mshr(self, line: int, is_write: bool,
                       waiter: Waiter) -> None:
        mshr = _MSHR(line_addr=line, any_write=is_write)
        mshr.waiters.append(waiter)
        self._mshrs[line] = mshr
        # Tag lookup consumed hit_latency before the miss goes downstream.
        self._events.schedule(self.params.hit_latency, self._request_line,
                              line)

    def _request_line(self, line: int, cycle: int) -> None:
        self.next_level.access_line(line << self._line_shift, False,
                                    (self._fill_arrived, line))

    def _fill_arrived(self, line: int, fill_level: str) -> None:
        """The next level produced the line; move it over the link, then
        install it and wake all waiters."""
        stage = self._c_stage
        if stage is not None:
            stage._fill_arrived(line, fill_level)
            return
        self._mshrs[line].fill_level = fill_level
        delay = self._link.request(self.params.line_bytes)
        self._events.schedule(delay, self._install, line)

    def _install(self, line: int, cycle: int) -> None:
        self.version += 1
        mshr = self._mshrs.pop(line)
        victim = self._insert(line, mshr.any_write)
        if victim != -1 and victim & 1:
            self.stat_writebacks.inc()
            self._link.request(self.params.line_bytes)
        for waiter in mshr.waiters:
            _answer(waiter, mshr.fill_level)
        self._drain_mshr_queue()

    def _drain_mshr_queue(self) -> None:
        while self._mshr_queue and len(self._mshrs) < self.params.mshr_entries:
            line, is_write, waiter = self._mshr_queue.popleft()
            if self._find(line) >= 0:
                # Filled while queued: a (late) hit.
                self.stat_hits.inc()
                self._events.schedule(self.params.hit_latency,
                                      self._return_line, waiter)
            elif line in self._mshrs:
                self.stat_delayed_hits.inc()
                self._mshrs[line].waiters.append(waiter)
            else:
                self.stat_misses.inc()
                self._allocate_mshr(line, is_write, waiter)

    # ------------------------------------------------------------- admin --
    def warm_line(self, addr: int, dirty: bool = False) -> None:
        """Pre-install the line containing ``addr`` (for tests/warmup)."""
        stage = self._c_stage
        if stage is not None:
            stage.warm_line(addr, dirty)
            return
        line = self.line_addr(addr)
        if self._find(line) >= 0:
            return
        self.version += 1
        self._insert(line, dirty)

    @property
    def outstanding_misses(self) -> int:
        return len(self._mshrs)
