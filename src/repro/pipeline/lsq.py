"""Load/store queue.

The paper (section 5, following sim-outorder) splits each memory reference
into an effective-address calculation — scheduled through the IQ as an
ordinary integer op — and a memory access held in a separate LSQ.  The LSQ
marks an access eligible for issue when its effective address is available
and it is *known not to conflict* with any earlier pending access:

* a load may issue only once every earlier store's address is known
  (conservative disambiguation);
* a load that matches an earlier pending store's address forwards from the
  store once the store's data is ready;
* stores complete (for the ROB) when both address and data are ready, and
  write the data cache at commit.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.common.errors import InvariantViolation, SimulationError
from repro.common.events import EventQueue
from repro.common.stats import StatGroup
from repro.isa.instruction import DynInst
from repro.isa.opcodes import FUClass, WORD_BYTES
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.request import LEVEL_FORWARD, MemRequest
from repro.obs.events import TraceEvent

#: Latency of a store-to-load forward, matched to the L1D hit latency.
FORWARD_LATENCY = 3

#: Outcomes of :meth:`LoadStoreQueue._issue_to_cache`.
_ISSUED, _NO_PORT, _NO_MSHR = range(3)


class LSQEntry:
    """One in-flight memory operation."""

    __slots__ = ("inst", "seq", "is_store", "addr", "word_addr",
                 "addr_ready_cycle", "data_ready_cycle", "issued",
                 "completed", "waiting_loads", "predicted_dep")

    def __init__(self, inst: DynInst) -> None:
        self.inst = inst
        self.seq = inst.seq
        self.is_store = inst.is_store
        self.addr: Optional[int] = None
        self.word_addr: Optional[int] = None
        self.addr_ready_cycle: Optional[int] = None
        self.data_ready_cycle: Optional[int] = None   # stores only
        self.issued = False
        self.completed = False
        self.waiting_loads: List["LSQEntry"] = []     # loads blocked on this store
        # Store-set policy: the in-flight store this load was predicted
        # (at dispatch, in program order) to depend on.
        self.predicted_dep: Optional["LSQEntry"] = None


class LoadStoreQueue:
    """Orders memory operations and issues them to the data cache."""

    #: Dispatch-stall cycles charged for a memory-order mis-speculation
    #: under the store-set policy (approximates a squash + refill).
    VIOLATION_FLUSH_PENALTY = 15

    #: Valid disambiguation policies (see repro.pipeline.memdep).
    POLICIES = ("conservative", "oracle", "store_sets")

    def __init__(self, size: int, memory: MemoryHierarchy,
                 events: EventQueue, stats: StatGroup, *,
                 iq=None, fu_pool=None, policy: str = "conservative") -> None:
        if policy not in self.POLICIES:
            raise SimulationError(f"unknown memory policy {policy!r}")
        self.size = size
        self.policy = policy
        self._memory = memory
        self._l1d = memory.l1d
        self._events = events
        self.iq = iq                     # set by the processor after build
        self.fu_pool = fu_pool
        self._entries: Dict[int, LSQEntry] = {}
        self._order: Deque[LSQEntry] = deque()
        # Store seqs whose address is still unknown (lazy-deleted heap).
        self._unknown_stores: List[int] = []
        self._known_stores: set = set()
        # Active (un-committed) stores by *timing-known* word address.
        self._stores_by_word: Dict[tuple, List[LSQEntry]] = {}
        # Active stores by their architecturally true word address
        # (known at dispatch from the functional simulator); used by the
        # oracle policy and for store-set violation detection.
        self._true_stores_by_word: Dict[tuple, List[LSQEntry]] = {}
        # Issued, un-committed loads by true word (store-set violations).
        self._issued_loads_by_word: Dict[tuple, List[LSQEntry]] = {}
        # Loads eligible to attempt issue this cycle.
        self._candidates: Deque[LSQEntry] = deque()
        # Loads with known addresses waiting for earlier store addresses.
        self._frontier_blocked: List = []     # heap of (seq, entry)
        # The first ``_refused`` candidates were refused an L1D MSHR at
        # L1D version ``_refused_version`` and will be again until that
        # version moves (see :meth:`cycle`).
        self._refused = 0
        self._refused_version = -1
        # Dispatch stalls until this cycle after a mis-speculation.
        self.violation_flush_until = 0
        #: Observability sink (see :mod:`repro.obs`); installed by the
        #: processor, ``None`` disables tracing.
        self.tracer = None
        if policy == "store_sets":
            from repro.pipeline.memdep import StoreSetPredictor
            self.memdep = StoreSetPredictor(stats)
        else:
            self.memdep = None

        self.stat_loads = stats.counter("lsq.loads")
        self.stat_stores = stats.counter("lsq.stores")
        self.stat_forwards = stats.counter(
            "lsq.forwards", "loads satisfied by store-to-load forwarding")
        self.stat_conflict_waits = stats.counter(
            "lsq.conflict_waits", "loads that waited on an earlier store")
        self.stat_dropped_store_writes = stats.counter(
            "lsq.dropped_store_writes",
            "committed store writes the L1D rejected (MSHRs full) and that "
            "were never retried")
        self.stat_occupancy = stats.distribution("lsq.occupancy")

    # ------------------------------------------------------------ space --
    @property
    def occupancy(self) -> int:
        return len(self._order)

    def has_space(self) -> bool:
        return len(self._order) < self.size

    # --------------------------------------------------------- dispatch --
    def dispatch(self, inst: DynInst, data_operand_ready: Optional[int],
                 data_producer: Optional[DynInst]) -> LSQEntry:
        """Allocate an entry at dispatch.

        For stores, ``data_operand_ready``/``data_producer`` describe the
        store-data register (the address register is tracked through the IQ).
        """
        if not self.has_space():
            raise SimulationError("LSQ dispatch with no space")
        entry = LSQEntry(inst)
        self._entries[entry.seq] = entry
        self._order.append(entry)
        if entry.is_store:
            self.stat_stores.inc()
            heapq.heappush(self._unknown_stores, entry.seq)
            if self.policy != "conservative":
                self._true_stores_by_word.setdefault(
                    self._true_key(entry), []).append(entry)
            if self.memdep is not None:
                self.memdep.store_fetched(inst.pc, entry)
            if data_producer is not None and data_operand_ready is None:
                data_producer.waiters.append(
                    lambda cycle, e=entry: self._store_data_ready(e, cycle))
            else:
                entry.data_ready_cycle = data_operand_ready or 0
        else:
            self.stat_loads.inc()
            if self.memdep is not None:
                # Consult the LFST here, in program order, so the load is
                # paired with its most recent *earlier* set member.
                entry.predicted_dep = self.memdep.predicted_store(inst.pc)
        return entry

    # ------------------------------------------------- address delivery --
    def _true_key(self, entry: LSQEntry) -> tuple:
        """Architecturally true (thread, word) key, known at dispatch."""
        return (entry.inst.thread, entry.inst.mem_addr // WORD_BYTES)

    def _timing_key(self, entry: LSQEntry) -> tuple:
        return (entry.inst.thread, entry.word_addr)

    def address_ready(self, inst: DynInst, cycle: int) -> None:
        """The IQ finished the effective-address calculation."""
        entry = self._entries[inst.seq]
        entry.addr = inst.mem_addr
        entry.word_addr = inst.mem_addr // WORD_BYTES
        entry.addr_ready_cycle = cycle
        if entry.is_store:
            # A newly placed store may conflict with a refused load.
            self._refused = 0
            self._known_stores.add(entry.seq)
            self._stores_by_word.setdefault(
                self._timing_key(entry), []).append(entry)
            if self.memdep is not None:
                self._detect_violations(entry, cycle)
            # Loads parked on this store for its address can re-check now.
            if entry.waiting_loads:
                self._candidates.extend(entry.waiting_loads)
                entry.waiting_loads = []
            self._maybe_complete_store(entry)
            self._advance_frontier()
        elif self.policy == "conservative":
            if entry.seq < self.store_frontier:
                self._candidates.append(entry)
            else:
                heapq.heappush(self._frontier_blocked, (entry.seq, entry))
        elif self.policy == "store_sets":
            predicted = entry.predicted_dep
            if (predicted is not None
                    and predicted.seq < entry.seq
                    and predicted.inst.completed_cycle < 0
                    and predicted.seq in self._entries):
                self.stat_conflict_waits.inc()
                predicted.waiting_loads.append(entry)
            else:
                self._candidates.append(entry)
        else:                              # oracle
            self._candidates.append(entry)

    def _detect_violations(self, store: LSQEntry, cycle: int) -> None:
        """Store-set policy: a younger load already issued to this store's
        word means the load speculated past a true dependence — but only
        if *this* store is the load's youngest earlier same-word store
        (a load that forwarded from an intervening store saw the right
        value)."""
        issued = self._issued_loads_by_word.get(self._timing_key(store))
        if not issued:
            return
        stores = self._stores_by_word.get(self._timing_key(store), ())
        violated = False
        for load in issued:
            if load.seq <= store.seq or not load.issued:
                continue
            youngest_earlier = None
            for candidate in stores:
                if candidate.seq < load.seq and (
                        youngest_earlier is None
                        or candidate.seq > youngest_earlier.seq):
                    youngest_earlier = candidate
            if youngest_earlier is store:
                self.memdep.record_violation(load.inst.pc, store.inst.pc)
                violated = True
                if self.tracer is not None:
                    self.tracer.emit(TraceEvent(
                        cycle=cycle, kind="squash", seq=load.seq,
                        pc=load.inst.pc, op=load.inst.static.opcode.value,
                        info="mem_order"))
        if violated:
            self.violation_flush_until = max(
                self.violation_flush_until,
                cycle + self.VIOLATION_FLUSH_PENALTY)

    @property
    def store_frontier(self) -> int:
        """Smallest store seq whose address is unknown (inf if none)."""
        heap = self._unknown_stores
        while heap and heap[0] in self._known_stores:
            self._known_stores.discard(heapq.heappop(heap))
        return heap[0] if heap else 1 << 60

    def _advance_frontier(self) -> None:
        frontier = self.store_frontier
        while self._frontier_blocked and self._frontier_blocked[0][0] < frontier:
            _, entry = heapq.heappop(self._frontier_blocked)
            self._candidates.append(entry)

    # --------------------------------------------------- store tracking --
    def _store_data_ready(self, entry: LSQEntry, cycle: int) -> None:
        entry.data_ready_cycle = cycle
        self._maybe_complete_store(entry)

    def _maybe_complete_store(self, entry: LSQEntry) -> None:
        if entry.addr_ready_cycle is None or entry.data_ready_cycle is None:
            return
        done = max(entry.addr_ready_cycle, entry.data_ready_cycle,
                   self._events.now)
        entry.completed = True
        self._events.schedule_at(
            done, lambda: self._mark_store_complete(entry, done))

    def _mark_store_complete(self, entry: LSQEntry, cycle: int) -> None:
        entry.inst.completed_cycle = cycle
        # Loads parked on this store can now forward from it.
        waiting, entry.waiting_loads = entry.waiting_loads, []
        self._candidates.extend(waiting)

    # ------------------------------------------------------ event-driven --
    def has_candidates(self) -> bool:
        """True when :meth:`cycle` would attempt load issue this cycle
        (used by the processor's skip-ahead probe; every other LSQ
        transition is event-driven and wakes the processor by itself)."""
        return bool(self._candidates)

    def skip_cycles(self, now: int, count: int) -> None:
        """Replay the per-cycle occupancy sample over a quiescent stretch."""
        self.stat_occupancy.sample_n(len(self._order), count)

    # -------------------------------------------------------- load issue --
    def cycle(self, now: int) -> None:
        """Attempt to issue every candidate load.

        A load refused an MSHR stays refused until the L1D's version
        moves (a fill or warming), so the leading candidates refused on
        an earlier cycle are counted as refused again without an attempt.
        Nothing else can change their outcome: new candidates queue
        behind them; only a newly placed store can give one a conflict
        (``address_ready`` resets the count); and a refusal claims no
        cache port while ports free every cycle, so each would find a
        free port.  The loads refused this cycle extend that prefix: a
        load that finds no port comes after all of them, as a port taken
        stays taken until the next cycle.
        """
        self.stat_occupancy.sample(len(self._order))
        candidates = self._candidates
        if not candidates:
            return
        l1d = self._l1d
        refused = self._refused if self._refused_version == l1d.version else 0
        if refused:
            l1d.stat_mshr_full.inc(refused)
            if refused == len(candidates):
                return
            candidates.rotate(-refused)     # attempt only those behind
        retry: List[LSQEntry] = []
        for _ in range(len(candidates) - refused):
            entry = candidates.popleft()
            if entry.issued:
                continue
            blocker = self._conflicting_store(entry)
            if blocker is not None:
                if blocker.inst.completed_cycle >= 0:
                    self._forward(entry, now)
                elif blocker.addr_ready_cycle is None:
                    # Oracle policy: a true conflict whose address the
                    # timing model has not computed yet; wait for it.
                    self.stat_conflict_waits.inc()
                    blocker.waiting_loads.append(entry)
                else:
                    self.stat_conflict_waits.inc()
                    blocker.waiting_loads.append(entry)
                continue
            outcome = self._issue_to_cache(entry, now)
            if outcome != _ISSUED:
                if outcome == _NO_MSHR:
                    refused += 1
                retry.append(entry)
        candidates.extend(retry)
        self._refused = refused
        self._refused_version = l1d.version

    def _conflicting_store(self, load: LSQEntry) -> Optional[LSQEntry]:
        """Youngest earlier un-committed store to the same word, if any.

        The conservative and store-set policies see only stores whose
        addresses the timing model has resolved (store-set loads speculate
        past unresolved ones; conservative loads were already held back by
        the frontier).  The oracle consults true addresses.
        """
        if self.policy == "oracle":
            stores = self._true_stores_by_word.get(self._true_key(load))
        else:
            stores = self._stores_by_word.get(self._timing_key(load))
        if not stores:
            return None
        for store in reversed(stores):
            if store.seq < load.seq:
                return store
        return None

    def _forward(self, load: LSQEntry, now: int) -> None:
        self.stat_forwards.inc()
        load.issued = True
        if self.memdep is not None:
            self._issued_loads_by_word.setdefault(
                self._timing_key(load), []).append(load)
        done = now + FORWARD_LATENCY
        inst = load.inst
        inst.mem_level = LEVEL_FORWARD

        def complete() -> None:
            inst.completed_cycle = done
            inst.set_value_ready(done)
            load.completed = True
            if self.iq is not None:
                self.iq.notify_load_complete(inst, done)

        self._events.schedule_at(done, complete)

    def _issue_to_cache(self, load: LSQEntry, now: int) -> int:
        """Send ``load`` to the L1D: ``_ISSUED``, or why it must retry."""
        if self.fu_pool is not None and not any(
                self.fu_pool.can_accept(FUClass.MEM_PORT, now, cluster)
                for cluster in range(self.fu_pool.clusters)):
            return _NO_PORT
        if self._l1d.rejects(load.addr):
            return _NO_MSHR
        inst = load.inst

        def on_complete(request: MemRequest) -> None:
            cycle = request.completed_cycle
            inst.mem_level = request.level
            inst.completed_cycle = cycle
            inst.set_value_ready(cycle)
            load.completed = True
            if self.iq is not None:
                self.iq.notify_load_complete(inst, cycle)

        def on_miss(request: MemRequest) -> None:
            if self.iq is not None:
                self.iq.notify_load_miss(inst, self._events.now)

        # Accepted: ``rejects`` just said an MSHR or the line is there.
        self._memory.data_access(MemRequest(
            addr=load.addr, is_write=False,
            on_complete=on_complete, on_miss=on_miss))
        if self.fu_pool is not None:
            self.fu_pool.try_cache_port(now)
        load.issued = True
        if self.memdep is not None:
            self._issued_loads_by_word.setdefault(
                self._timing_key(load), []).append(load)
        return _ISSUED

    # -------------------------------------------------------- invariants --
    def check(self, now: int) -> None:
        """Invariants: bounded occupancy, program-ordered queue, and
        agreement between the seq index and the age-ordered deque."""
        if len(self._order) > self.size:
            raise InvariantViolation(
                f"LSQ holds {len(self._order)} > size {self.size} "
                f"at cycle {now}")
        if len(self._order) != len(self._entries):
            raise InvariantViolation(
                f"LSQ index/order disagreement at cycle {now}: "
                f"{len(self._entries)} indexed vs {len(self._order)} ordered")
        previous = -1
        for entry in self._order:
            if entry.seq <= previous:
                raise InvariantViolation(
                    f"LSQ out of program order at cycle {now}: "
                    f"#{entry.seq} follows #{previous}")
            if self._entries.get(entry.seq) is not entry:
                raise InvariantViolation(
                    f"LSQ entry #{entry.seq} missing from the seq index "
                    f"at cycle {now}")
            previous = entry.seq

    # ------------------------------------------------------------ commit --
    def commit(self, inst: DynInst, now: int) -> None:
        """Remove the op at commit; stores write the data cache here."""
        entry = self._entries.pop(inst.seq)
        if self._order and self._order[0] is entry:
            self._order.popleft()
        else:
            self._order.remove(entry)
        if not entry.is_store:
            if self.memdep is not None:
                issued = self._issued_loads_by_word.get(
                    self._timing_key(entry))
                if issued and entry in issued:
                    issued.remove(entry)
                    if not issued:
                        del self._issued_loads_by_word[
                            self._timing_key(entry)]
            return
        key = self._timing_key(entry)
        stores = self._stores_by_word.get(key)
        if stores and entry in stores:
            stores.remove(entry)
            if not stores:
                del self._stores_by_word[key]
        if self.policy != "conservative":
            true_key = self._true_key(entry)
            true_stores = self._true_stores_by_word.get(true_key)
            if true_stores and entry in true_stores:
                true_stores.remove(entry)
                if not true_stores:
                    del self._true_stores_by_word[true_key]
        if self.memdep is not None:
            self.memdep.store_left(inst.pc, entry)
        # Fire-and-forget write access (write-allocate).  A write the L1D
        # rejects for want of an MSHR is lost, not retried: a known
        # modelling divergence, counted here (see EXPERIMENTS.md).
        if not self._memory.data_access(MemRequest(addr=entry.addr,
                                                   is_write=True)):
            self.stat_dropped_store_writes.inc()
        # Any loads still parked (dispatched after completion raced the
        # commit) go back to candidates; they will re-run the conflict
        # check and read the cache.
        self._candidates.extend(entry.waiting_loads)
        entry.waiting_loads = []
