"""Struct-of-arrays kernel engine: the segmented IQ's state of record.

The segmented model's active-cycle work — promote/schedule selection,
``pop_eligible``, and chain-event wakeup fan-out — runs over parallel
primitive arrays indexed by *slot* (entries) and *cslot* (chains):

* entry columns: sequence number, segment index, eligibility cycle,
  ready-heap residency, compiled countdown arrival, up to two
  ``(cslot, dh)`` chain links, the own-chain cslot, and per-link
  *critical bases* (``threshold - dh``, the broadcast filter keys);
* chain columns: the compiled delay constants ``(mode, base)`` plus the
  head segment, and per-chain member lists of packed ``(seq, slot)``
  keys;
* per-segment state: occupancy counts, insertion-ordered membership,
  and the two-stage maturity/ready heaps as heaps of packed integers
  ``(when << SLOT_BITS) | slot`` and ``(seq << SLOT_BITS) | slot``.

These columns are the only copy of that state.  The engine holds each
buffered entry's ``IQEntry`` (handed back by issue, promotion and the
membership readers) but writes nothing onto it; readers ask the engine
instead (``seg_of`` for an entry's segment, ``hseg_of``/``mode_of``/
``base_of`` behind the ``Chain`` properties).  Chains are not held at
all: a ``Chain`` keeps its ``cslot``, and the engine forgets the object.

The engine also runs the segmented IQ's policy around those columns, so
``SegmentedIQ`` makes the same calls on either backend: ``bind`` (once:
the classes, tables and counters of the queue that the ops below use),
``plan`` (the RIT read and predictor consults behind a dispatch plan),
``can_dispatch``, ``dispatch`` (target segment, chain allocation, and
the IQEntry, SegmentState and RIT entry of the admitted instruction),
``select_issue`` (segment-0 issue and its per-entry bookkeeping: the
chain head's issue signal, left/right-predictor training),
``on_entry_ready_known`` (operand wakeup), ``cycle`` (the promotion
sweep and its counters, segment-0 arrivals, deadlock detection, the
chain-wire and occupancy samples) and the load and writeback hooks
``load_miss``, ``load_complete`` and ``writeback`` (suspend, resume, the
wire free and hit/miss training).  What fires rarely stays on the queue,
and the engine calls it back: deadlock recovery, resizing, threshold
refits and the trace emission of promotions.

The policy's state stays on its Python objects: ``Chain`` slots, the
``ChainManager`` pool, the predictors' tables, the queue's counters.
:class:`PyKernelEngine` calls their methods (``ChainManager.allocate``,
``Chain.on_head_issued``, ``HitMissPredictor.predict_hit``, ...); the
compiled engine runs the same bodies inline on the same ``__slots__``,
and with a tracer attached calls ``ChainManager.trace`` where those
methods emit, so traces keep their event order.

Two interchangeable backends implement the same engine contract, with
the same public methods (``tests/core/test_engine_parity.py`` checks
both, call for call):

* :class:`PyKernelEngine` — the pure-Python reference (always
  available);
* ``_ckernels.Engine`` — an optional hand-written C twin compiled on
  demand (``python -m repro.core.segmented.build``); bit-identical by
  construction (each loop is a line-for-line transliteration).

Backend selection (see docs/performance.md): the ``REPRO_KERNELS``
environment variable (``py`` | ``compiled`` | ``auto``, default
``auto``) or :func:`set_backend`; :func:`backend` reports the resolved
choice.  ``auto`` uses the compiled module when it is importable and
falls back to pure Python silently — the compiled backend is never a
hard install-time dependency.

Semantics notes (shared by both backends):

* ``NEVER`` eligibility records are never pushed; maturity records are
  pushed lazily and invalidated by the ``(segment, eligible_at)``
  staleness test.  Packed maturity keys drop the sequence number: a
  record surviving slot reuse aliases onto the new occupant only when
  every staleness check passes, which makes it an exact duplicate of the
  occupant's own record — the ready-residency test then suppresses it,
  so aliasing is benign.
* The engine keeps its own ``now``, updated only where ``SegmentedIQ``
  assigns ``self.now`` (``select_issue``, ``cycle``, ``skip_cycles``) —
  chain events delivered between cycles (load suspend/resume) must see
  the *previous* cycle's clock.
* The *critical base* filter: a queued chain's promotion broadcast can
  only un-block a member whose link satisfies ``base + dh < threshold``.
  Members parked at ``NEVER`` whose link still fails that test are
  skipped without rescheduling (their eligibility provably recomputes
  to ``NEVER``).  ``e_crit*`` is refreshed on every (re)schedule so the
  filter key always reflects the member's current segment threshold.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import List, Optional, Tuple

from repro.common.errors import SimulationError

#: Sentinel for "not before the next chain event" (mirrors links.NEVER).
NEVER = 1 << 60

#: Bits reserved for the slot index in packed heap keys.  2**20 slots is
#: far above any IQ size; ``when << 20`` keeps cycle counts below 2**43.
SLOT_BITS = 20
SLOT_MASK = (1 << SLOT_BITS) - 1

#: object.__new__, hoisted: admit builds its IQEntry / SegmentState /
#: RITEntry with direct slot stores instead of constructor frames.
_new = object.__new__


def _in_range(index: int, column) -> None:
    """IndexError unless ``index`` names a cell of ``column``: the
    columns are not Python lists to the compiled engine, so a negative
    index names no cell there either."""
    if not 0 <= index < len(column):
        raise IndexError("engine column index out of range")


class PyKernelEngine:
    """Pure-Python struct-of-arrays engine (the reference backend)."""

    kind = "py"

    __slots__ = (
        "num_segments", "cap", "thr", "now", "collect", "events",
        "e_obj", "e_seq", "e_seg", "e_elig", "e_rseg", "e_cd",
        "e_c0", "e_dh0", "e_c1", "e_dh1", "e_own", "e_crit0", "e_crit1",
        "free_slots", "occ", "heaps", "readys", "members", "free_prev",
        "c_mode", "c_base", "c_hseg", "c_members",
        "p0heap", "r0heap", "tc",
        # Bound once by bind():
        "plan_cls", "state_cls", "rit_cls", "entry_cls", "plan_cache",
        "rit", "head_chains", "chains", "stat_dispatched",
        "stat_two_chain", "stat_bypass", "stat_chain_heads", "stat_issued",
        "stat_seg0_ready", "stat_promotions", "stat_pushdowns",
        "stat_occupancy", "load_latency", "patience",
    )

    def __init__(self, num_segments: int, capacity: int,
                 thresholds) -> None:
        self.num_segments = num_segments
        self.cap = capacity
        self.thr = list(thresholds)
        self.now = 0
        self.collect = False
        self.events: List[Tuple] = []
        # Entry columns (slot-indexed, grown on demand).
        self.e_obj: List = []
        self.e_seq: List[int] = []
        self.e_seg: List[int] = []
        self.e_elig: List[int] = []
        self.e_rseg: List[int] = []
        self.e_cd: List[int] = []
        self.e_c0: List[int] = []
        self.e_dh0: List[int] = []
        self.e_c1: List[int] = []
        self.e_dh1: List[int] = []
        self.e_own: List[int] = []
        self.e_crit0: List[int] = []
        self.e_crit1: List[int] = []
        self.free_slots: List[int] = []
        # Per-segment state.
        self.occ = [0] * num_segments
        self.heaps: List[List[int]] = [[] for _ in range(num_segments)]
        self.readys: List[List[int]] = [[] for _ in range(num_segments)]
        # Insertion-ordered membership (dict keys; values unused).
        self.members: List[dict] = [{} for _ in range(num_segments)]
        self.free_prev = [capacity] * num_segments
        # Chain columns (cslot-indexed; cslots are never recycled — a
        # freed chain's frozen constants keep serving late followers).
        self.c_mode: List[int] = []
        self.c_base: List[int] = []
        self.c_hseg: List[int] = []
        self.c_members: List[List[int]] = []
        # Segment-0 issue scheduling on actual readiness: pending records
        # ``(ready_cycle << SLOT_BITS) | slot`` mature into the ready heap
        # of ``(seq << SLOT_BITS) | slot`` keys.
        self.p0heap: List[int] = []
        self.r0heap: List[int] = []
        #: (queue occupancy, segment) decided by the last successful
        #: can_dispatch, so the dispatch that follows skips a second
        #: search.
        self.tc: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------ clock --
    def set_now(self, now: int) -> None:
        self.now = now

    def set_collect(self, flag: bool) -> None:
        self.collect = bool(flag)

    def drain_events(self):
        """Buffered ``(entry, src_seg, dst_seg, pushdown)`` promote events
        in emission order (only collected while ``set_collect`` is on)."""
        events = self.events
        self.events = []
        return events

    # ------------------------------------------------------- thresholds --
    def set_threshold(self, index: int, threshold: int) -> None:
        _in_range(index, self.thr)
        self.thr[index] = threshold

    def threshold(self, index: int) -> int:
        _in_range(index, self.thr)
        return self.thr[index]

    # ------------------------------------------------------------ chains --
    def alloc_chain(self, mode: int, base: int, head_segment: int) -> int:
        cslot = len(self.c_mode)
        self.c_mode.append(mode)
        self.c_base.append(base)
        self.c_hseg.append(head_segment)
        self.c_members.append([])
        return cslot

    def chain_set(self, cslot: int, mode: int, base: int,
                  head_segment: int) -> None:
        self.c_mode[cslot] = mode
        self.c_base[cslot] = base
        self.c_hseg[cslot] = head_segment

    def mode_of(self, cslot: int) -> int:
        _in_range(cslot, self.c_mode)
        return self.c_mode[cslot]

    def base_of(self, cslot: int) -> int:
        _in_range(cslot, self.c_base)
        return self.c_base[cslot]

    def hseg_of(self, cslot: int) -> int:
        _in_range(cslot, self.c_hseg)
        return self.c_hseg[cslot]

    # ----------------------------------------------------------- entries --
    def insert_entry(self, obj, seq: int, seg: int, cd: int, c0: int,
                     dh0: int, c1: int, dh1: int, own: int,
                     now: int) -> int:
        if self.free_slots:
            slot = self.free_slots.pop()
            self.e_obj[slot] = obj
            self.e_seq[slot] = seq
            self.e_seg[slot] = seg
            self.e_elig[slot] = NEVER
            self.e_rseg[slot] = -1
            self.e_cd[slot] = cd
            self.e_c0[slot] = c0
            self.e_dh0[slot] = dh0
            self.e_c1[slot] = c1
            self.e_dh1[slot] = dh1
            self.e_own[slot] = own
            self.e_crit0[slot] = 0
            self.e_crit1[slot] = 0
        else:
            slot = len(self.e_seq)
            self.e_obj.append(obj)
            self.e_seq.append(seq)
            self.e_seg.append(seg)
            self.e_elig.append(NEVER)
            self.e_rseg.append(-1)
            self.e_cd.append(cd)
            self.e_c0.append(c0)
            self.e_dh0.append(dh0)
            self.e_c1.append(c1)
            self.e_dh1.append(dh1)
            self.e_own.append(own)
            self.e_crit0.append(0)
            self.e_crit1.append(0)
        key = (seq << SLOT_BITS) | slot
        if c0 >= 0:
            self.c_members[c0].append(key)
        if c1 >= 0:
            self.c_members[c1].append(key)
        self.members[seg][slot] = None
        self.occ[seg] += 1
        if seg > 0:
            self._schedule(slot, seg, now)
        return slot

    # ---------------------------------------------------- dispatch ops --
    def bind(self, classes, tables, counters, constants) -> None:
        """What the policy ops build, count and call, bound once by the
        segmented IQ: the classes ``(DispatchPlan, SegmentState,
        RITEntry, IQEntry, Chain)``; the tables ``(plan cache, RIT
        entries, head-chain map, ChainManager, its active dict, its free
        ids)``; the counters ``(iq.dispatched, iq.two_chain_instructions,
        iq.bypass_dispatches, iq.chain_heads, iq.issued, iq.seg0_ready,
        iq.promotions, iq.pushdowns, iq.occupancy, chains.allocated,
        chains.alloc_failures, chains.in_use)``; and the constants
        ``(predicted load latency, deadlock patience, hit levels)``.
        This backend builds chains and trains predictors through their
        own methods; the compiled twin runs those bodies inline on the
        Chain class, the pool's dict and list and the hit levels."""
        (self.plan_cls, self.state_cls, self.rit_cls, self.entry_cls,
         _chain_cls) = classes
        (self.plan_cache, self.rit, self.head_chains, self.chains,
         _active, _free_ids) = tables
        (self.stat_dispatched, self.stat_two_chain, self.stat_bypass,
         self.stat_chain_heads, self.stat_issued, self.stat_seg0_ready,
         self.stat_promotions, self.stat_pushdowns, self.stat_occupancy,
         _allocated, _alloc_failures, _in_use) = counters
        self.load_latency, self.patience, _hit_levels = constants

    def plan(self, queue, inst, now: int):
        """Decide chain membership / creation for ``inst`` (cached so that
        can_dispatch and dispatch agree and predictors are consulted once).
        """
        cached = self.plan_cache.get(inst.seq)
        if cached is not None:
            return cached

        links = self._plan_links(self.rit, inst, now)
        lrp = queue.lrp
        lrp_choice = -1
        lrp_consulted = False
        two_distinct_chains = (
            len(links) == 2
            and type(links[0]) is tuple
            and type(links[1]) is tuple
            and links[0][0] is not links[1][0])
        if two_distinct_chains:
            self.stat_two_chain.inc()

        if lrp is not None and len(links) == 2:
            lrp_choice = lrp.predict_later(inst.pc)
            lrp_consulted = True
            links = [links[lrp_choice]]

        needs_chain = False
        head_latency = 0
        if inst.is_load:
            hmp = queue.hmp
            predicted_hit = (hmp is not None
                             and hmp.predict_hit(inst.pc, inst.seq))
            if not predicted_hit:
                needs_chain = True
                head_latency = self.load_latency
        elif two_distinct_chains and lrp is None:
            # Base design: two-chain instructions become chain heads (3.4).
            needs_chain = True
            head_latency = inst.latency

        countdown = -1
        pairs = []
        for link in links:
            if type(link) is tuple:
                pairs.append(link)
            elif link > countdown:
                countdown = link

        # DispatchPlan with direct slot stores (no constructor frame).
        plan = _new(self.plan_cls)
        plan.countdown_ready = countdown
        plan.chain_pairs = pairs
        plan.needs_chain = needs_chain
        plan.lrp_choice = lrp_choice
        plan.lrp_consulted = lrp_consulted
        plan.head_latency = head_latency
        self.plan_cache[inst.seq] = plan
        return plan

    def can_dispatch(self, queue, inst) -> bool:
        """Whether ``inst`` can enter the queue now: a target segment
        (counting a full refusal) and, for a chain head, a free chain
        wire (counting an allocation failure).  Plans ``inst`` and keeps
        the target for the dispatch that follows."""
        queue.blocked_on_chain = False
        self.tc = None
        target = self._dispatch_target(queue.active_segments,
                                       queue._enable_bypass)
        if target < 0:
            queue._full_refusals += 1
            return False
        plan = self.plan(queue, inst, queue.now)
        if plan.needs_chain and not self.chains.has_free():
            queue.blocked_on_chain = True
            self.chains.stat_alloc_failures.inc()
            return False
        self.tc = (queue._occupancy, target)
        return True

    def dispatch(self, queue, inst, operands: List, now: int):
        """Dispatch a planned instruction: its target segment, its chain
        when it heads one, then :meth:`_admit`.  Returns its IQEntry."""
        plan = self.plan_cache.pop(inst.seq, None)
        if plan is None:
            plan = self.plan(queue, inst, now)
            del self.plan_cache[inst.seq]
        # Reuse the target can_dispatch just computed; occupancy is the
        # cheap staleness guard (inserts and removals both change it).
        cached, self.tc = self.tc, None
        if (cached is not None and cached[0] == queue._occupancy
                and self.occ[cached[1]] < self.cap):
            target = cached[1]
        else:
            target = self._dispatch_target(queue.active_segments,
                                           queue._enable_bypass)
            if target < 0:
                queue._full_refusals += 1
        if target < 0:
            raise SimulationError("dispatch into a full segmented IQ")
        if target < self.num_segments - 1:
            self.stat_bypass.inc()

        chain = None
        if plan.needs_chain:
            chain = self.chains.allocate(inst, self, target,
                                         plan.head_latency, now=now)
            if chain is None:
                raise SimulationError("dispatch without a free chain wire")
            self.head_chains[inst.seq] = chain
            self.stat_chain_heads.inc()

        return self._admit(queue, self.rit, inst, operands, plan, chain,
                           target, now)

    def _plan_links(self, rit_entries: dict, inst, now: int) -> List:
        """The RIT read of dispatch planning: classify each IQ-relevant
        source's producer as exactly known, a live chain, a freed chain,
        or chainless.  Packed links: a chain link is a ``(chain, dh)``
        pair, a countdown link its bare ready cycle (int)."""
        links = []
        reg_base = inst.thread * 64      # per-thread RIT namespaces
        for reg in (inst.srcs[:1] if inst.is_mem else inst.srcs):
            if reg == 0:
                continue
            rentry = rit_entries.get(reg_base + reg)
            if rentry is None:
                continue
            ready = rentry.producer.value_ready_cycle
            if ready is not None:
                # Exact knowledge: the producer already issued or
                # completed.
                if ready > now:
                    links.append(ready)
                continue
            rchain = rentry.chain
            if rchain is not None:
                if not rchain.freed:
                    links.append((rchain, rentry.dh))
                else:
                    # Chain wire freed: value trails the written-back
                    # head by at most dh self-timed cycles.
                    links.append(now + rchain.member_delay(rentry.dh, now))
                continue
            if rentry.expected_ready > now:
                links.append(rentry.expected_ready)
        return links

    def _admit(self, queue, rit_entries: dict, inst, operands: List, plan,
               chain, target: int, now: int):
        """Admit a planned instruction into segment ``target``: build its
        IQEntry and SegmentState with direct slot stores (exact inlining
        of the constructors and the operand-wakeup subscription), insert
        its columns, count it, push a ready segment-0 entry, and write
        its destination's RIT entry.  The entry's segment lives in the
        engine only (``SegmentedIQ.segment_of``)."""
        entry = _new(self.entry_cls)
        entry.inst = inst
        entry.seq = inst.seq
        entry.operands = operands
        entry.issued = False
        entry.queue_cycle = now
        unknown = 0
        ready = 0
        for operand in operands:
            rc = operand.ready_cycle
            if rc is None:
                unknown += 1
            elif rc > ready:
                ready = rc
        entry.unknown_count = unknown
        entry.ready_cycle = ready
        countdown = plan.countdown_ready
        pairs = plan.chain_pairs
        state = _new(self.state_cls)
        state._links = None
        state.own_chain = chain
        state.lrp_choice = plan.lrp_choice
        state.lrp_consulted = plan.lrp_consulted
        state.countdown_ready = countdown
        state.chain_pairs = pairs
        entry.chain_state = state
        if unknown:
            # One wakeup triple per unknown operand (the base class's
            # operand-wakeup registration, inlined).
            for index, operand in enumerate(operands):
                if operand.ready_cycle is None:
                    operand.producer.waiters.append((queue, entry, index))
        c0 = c1 = -1
        dh0 = dh1 = 0
        if pairs:
            c0 = pairs[0][0].cslot
            dh0 = pairs[0][1]
            if len(pairs) > 1:
                c1 = pairs[1][0].cslot
                dh1 = pairs[1][1]
        own = chain.cslot if chain is not None else -1
        state.slot = slot = self.insert_entry(entry, inst.seq, target,
                                              countdown, c0, dh0, c1, dh1,
                                              own, now)
        queue._occupancy += 1
        self.stat_dispatched.inc()
        if target == 0 and not unknown:
            self.p0_push(slot, max(ready, now + 1))
        # The RIT update (RITEntry stored with direct slot writes).
        dest = inst.dest
        if dest is None or dest == 0:
            return entry
        own_latency = self.load_latency if inst.is_load else inst.latency
        rentry = _new(self.rit_cls)
        rentry.producer = inst
        if chain is not None:
            rentry.chain = chain
            rentry.dh = plan.head_latency
            rentry.expected_ready = 0
        else:
            deepest = None
            for pair in pairs:
                if deepest is None or pair[1] > deepest[1]:
                    deepest = pair
            if deepest is not None:
                # Follow the (single) producing chain; the consumer's
                # value trails the head by the operand's latency plus
                # this op.
                rentry.chain = deepest[0]
                rentry.dh = deepest[1] + own_latency
                rentry.expected_ready = 0
            else:
                rentry.chain = None
                rentry.dh = 0
                expected = now + 1
                if countdown > expected:
                    expected = countdown
                rentry.expected_ready = expected + own_latency
        rit_entries[inst.thread * 64 + dest] = rentry
        return entry

    def free_entry(self, slot: int) -> None:
        _in_range(slot, self.e_seg)
        seg = self.e_seg[slot]
        del self.members[seg][slot]
        self.occ[seg] -= 1
        self.e_seq[slot] = -1
        self.e_obj[slot] = None
        self.free_slots.append(slot)

    def detach(self, slot: int) -> None:
        _in_range(slot, self.e_seg)
        seg = self.e_seg[slot]
        del self.members[seg][slot]
        self.occ[seg] -= 1

    def attach(self, slot: int, seg: int, now: int) -> None:
        _in_range(slot, self.e_seg)
        _in_range(seg, self.occ)
        self.e_seg[slot] = seg
        self.members[seg][slot] = None
        self.occ[seg] += 1
        if seg > 0:
            self._schedule(slot, seg, now)

    def entry_obj(self, slot: int):
        _in_range(slot, self.e_obj)
        return self.e_obj[slot]

    def seg_of(self, slot: int) -> int:
        _in_range(slot, self.e_seg)
        return self.e_seg[slot]

    def slot_seq(self, slot: int) -> int:
        _in_range(slot, self.e_seq)
        return self.e_seq[slot]

    # ---------------------------------------------------- segment-0 issue --
    def p0_push(self, slot: int, when: int) -> None:
        """Record that the entry in ``slot`` (fully known, in segment 0)
        becomes an issue candidate at cycle ``when``."""
        _in_range(slot, self.e_seq)
        heappush(self.p0heap, (when << SLOT_BITS) | slot)

    def p0_next(self, now: int) -> int:
        """Earliest cycle the segment-0 issue path could act: ``now``
        while ready candidates (even stale records) are queued, else the
        next pending maturity, else NEVER."""
        if self.r0heap:
            return now
        if self.p0heap:
            return self.p0heap[0] >> SLOT_BITS
        return NEVER

    def issue_select(self, now: int, width: int, fu, acquire):
        """The fused segment-0 issue loop.

        Matured pending records graduate into the ready heap (drop the
        record when the occupant left segment 0 — recycled by deadlock
        recovery — or issued; no record outlives its entry otherwise,
        because every record's ready cycle is at or before the entry's
        issue cycle).  Then the ``width`` oldest candidates that the FU
        pool accepts issue, and blocked candidates re-queue.  Returns
        ``(ready_count, issued_entries)`` — the count feeds the
        ``iq.seg0_ready`` sample *before* staleness filtering at pop
        time, exactly like the tuple-heap code it replaces.

        ``fu`` is the pipeline kernel engine when the caller can offer a
        fused FU check (the compiled twin exploits it); this reference
        implementation always goes through ``acquire(inst)``.
        """
        p0 = self.p0heap
        r0 = self.r0heap
        e_seq = self.e_seq
        e_seg = self.e_seg
        bound = (now + 1) << SLOT_BITS
        while p0 and p0[0] < bound:
            slot = heappop(p0) & SLOT_MASK
            if e_seg[slot] == 0 and e_seq[slot] >= 0:
                heappush(r0, (e_seq[slot] << SLOT_BITS) | slot)
        count = len(r0)
        issued: List = []
        blocked: List[int] = []
        e_obj = self.e_obj
        while r0 and len(issued) < width:
            key = heappop(r0)
            slot = key & SLOT_MASK
            if e_seq[slot] != key >> SLOT_BITS or e_seg[slot] != 0:
                continue               # issued already or recycled
            entry = e_obj[slot]
            if acquire(entry.inst):
                self.free_entry(slot)
                issued.append(entry)
            else:
                blocked.append(key)
        for key in blocked:
            heappush(r0, key)
        return count, issued

    def select_issue(self, queue, now: int, acquire_fu) -> List:
        """One cycle of segment-0 issue for ``queue``: the fused issue
        loop, the ``iq.seg0_ready`` sample, and the object-side
        bookkeeping of each issued entry."""
        queue.now = now
        self.now = now
        queue._issued_this_cycle = False
        count, issued = self.issue_select(now, queue.issue_width, None,
                                          acquire_fu)
        self.stat_seg0_ready.sample(count)
        if issued:
            queue._issued_this_cycle = True
            self.stat_issued.inc(len(issued))
            lrp = queue.lrp
            for entry in issued:
                # The engine freed the slot; finish the object-side issue
                # bookkeeping.
                entry.issued = True
                queue._occupancy -= 1
                state = entry.chain_state
                own = state.own_chain
                if own is not None:
                    own.on_head_issued(now)
                if state.lrp_consulted and lrp is not None:
                    ops = entry.operands
                    if len(ops) == 2:
                        lrp.train(entry.inst.pc,
                                  ops[0].ready_cycle or 0,
                                  ops[1].ready_cycle or 0,
                                  state.lrp_choice)
        return issued

    def on_entry_ready_known(self, entry) -> None:
        """Operand wakeup: a fully known entry still in segment 0 becomes
        an issue candidate at its ready cycle."""
        if not entry.issued:
            slot = entry.chain_state.slot
            if self.e_seg[slot] == 0:
                self.p0_push(slot, entry.ready_cycle)

    # ------------------------------------------------------------ cycle --
    def cycle(self, queue, now: int) -> None:
        """One cycle of ``queue``'s policy after issue: the promotion
        sweep and its counters, segment-0 arrivals becoming issue
        candidates, the promote trace (``queue._trace_promotions`` while
        collecting), deadlock detection (paper section 4.5;
        ``queue._recover`` when it fires), the free-space refresh, the
        chain-wire and occupancy samples, and the resize controller and
        threshold refit when they are enabled."""
        queue.now = now
        self.now = now
        promotions, pushdowns, seg0_entries = self.promote_all(
            now, queue.issue_width, queue._enable_pushdown)
        moved = promotions + pushdowns
        queue._promoted_this_cycle = moved > 0
        if moved:
            self.stat_promotions.inc(moved)
        if pushdowns:
            self.stat_pushdowns.inc(pushdowns)
        later = now + 1
        for entry in seg0_entries:
            if not entry.unknown_count:
                ready = entry.ready_cycle
                self.p0_push(entry.chain_state.slot,
                             ready if ready > later else later)
        if self.collect:
            queue._trace_promotions(now)
        # Deadlock: the IQ is not empty and nothing issued, promoted or
        # is in execution, or nothing issued or committed for `patience`
        # cycles.
        issued = queue._issued_this_cycle
        if issued:
            queue._last_issue_cycle = now
        if queue._occupancy == 0:
            queue._last_issue_cycle = now
        elif ((not issued and not moved and queue.in_flight == 0)
              or now - max(queue._last_issue_cycle,
                           queue.last_commit_cycle) > self.patience):
            queue._recover(now)
        self.refresh_free_prev()
        self.chains.sample()
        self.stat_occupancy.sample(queue._occupancy)
        if queue._dynamic_resize:
            queue._resize_controller(now)
        if (queue._adaptive_thresholds and now
                and now % queue._threshold_update_interval == 0):
            queue._refit_thresholds(now)

    # ------------------------------------------------------ load events --
    def load_miss(self, queue, inst, now: int) -> None:
        """A load missed: a chain it heads suspends its countdown."""
        chain = self.head_chains.get(inst.seq)
        if chain is not None:
            chain.suspend(now)
            if self.chains.tracer is not None:
                self.chains.trace(now, "chain_wire", inst, chain.chain_id,
                                  info="suspend")

    def load_complete(self, queue, inst, now: int) -> None:
        """A load completed: the hit/miss predictor trains on where it
        was satisfied, and a chain it heads resumes and frees its wire."""
        hmp = queue.hmp
        if hmp is not None and inst.mem_level is not None:
            hmp.train(inst.pc, inst.seq, inst.mem_level)
        chain = self.head_chains.pop(inst.seq, None)
        if chain is not None:
            chain.resume(now)
            chains = self.chains
            if chains.tracer is not None:
                chains.trace(now, "chain_wire", inst, chain.chain_id,
                             info="resume")
            chains.free(chain, now=now)

    def writeback(self, queue, inst, now: int) -> None:
        """An instruction wrote back: free the chain wire it heads."""
        chain = self.head_chains.pop(inst.seq, None)
        if chain is not None:
            self.chains.free(chain, now=now)

    # ------------------------------------------------------- eligibility --
    def _eligible_when(self, slot: int, threshold: int, now: int) -> int:
        """The promote-eligibility cycle — the first cycle the max over
        the entry's links drops below ``threshold``, NEVER while a static
        (queued or suspended) link still fails it — and the critical-base
        refresh, shared by every (re)schedule path."""
        dh0 = self.e_dh0[slot]
        dh1 = self.e_dh1[slot]
        self.e_crit0[slot] = threshold - dh0
        self.e_crit1[slot] = threshold - dh1
        when = now
        cd = self.e_cd[slot]
        if cd >= 0:
            w = cd - threshold + 1
            if w > when:
                when = w
        c0 = self.e_c0[slot]
        if c0 >= 0:
            mode = self.c_mode[c0]
            base = self.c_base[c0]
            if mode == 1:
                w = base + dh0 - threshold + 1
                if w > when:
                    when = w
            elif (base + dh0 if mode == 0 else dh0 - base) >= threshold:
                return NEVER
        c1 = self.e_c1[slot]
        if c1 >= 0:
            mode = self.c_mode[c1]
            base = self.c_base[c1]
            if mode == 1:
                w = base + dh1 - threshold + 1
                if w > when:
                    when = w
            elif (base + dh1 if mode == 0 else dh1 - base) >= threshold:
                return NEVER
        return when

    def _schedule(self, slot: int, seg: int, now: int) -> None:
        """Recompute eligibility on arrival in ``seg`` (unconditional
        maturity push)."""
        when = self._eligible_when(slot, self.thr[seg], now)
        self.e_elig[slot] = when
        if when <= now:
            if self.e_rseg[slot] != seg:
                self.e_rseg[slot] = seg
                heappush(self.readys[seg],
                         (self.e_seq[slot] << SLOT_BITS) | slot)
        else:
            if self.e_rseg[slot] == seg:
                self.e_rseg[slot] = -1
            if when < NEVER:
                heappush(self.heaps[seg], (when << SLOT_BITS) | slot)

    def notify(self, cslot: int) -> None:
        """Chain-event fan-out over the member list: reschedule every
        live member, pruning issued ones, with duplicate-push suppression
        and the critical-base filter."""
        members = self.c_members[cslot]
        if not members:
            return
        e_seq = self.e_seq
        e_seg = self.e_seg
        e_elig = self.e_elig
        e_rseg = self.e_rseg
        e_c0 = self.e_c0
        e_c1 = self.e_c1
        e_crit0 = self.e_crit0
        e_crit1 = self.e_crit1
        mode = self.c_mode[cslot]
        base = self.c_base[cslot]
        now = self.now
        thr = self.thr
        kept: List[int] = []
        keep = kept.append
        for key in members:
            slot = key & SLOT_MASK
            if e_seq[slot] != key >> SLOT_BITS:
                continue            # issued or recycled: drop the key
            keep(key)
            seg = e_seg[slot]
            if seg == 0:
                continue            # issues on operand readiness now
            if e_elig[slot] == NEVER and mode == 0:
                # Critical-base filter: a queued head's promotion cannot
                # un-block a member whose link still fails the segment
                # threshold; the recompute would return NEVER again.
                if ((e_c0[slot] == cslot and base >= e_crit0[slot])
                        or (e_c1[slot] == cslot
                            and base >= e_crit1[slot])):
                    continue
            when = self._eligible_when(slot, thr[seg], now)
            old = e_elig[slot]
            e_elig[slot] = when
            if when <= now:
                if e_rseg[slot] != seg:
                    e_rseg[slot] = seg
                    heappush(self.readys[seg],
                             (e_seq[slot] << SLOT_BITS) | slot)
            else:
                if e_rseg[slot] == seg:
                    e_rseg[slot] = -1
                if when < NEVER and when != old:
                    # when == old needs no push: a live record with this
                    # key already sits in the heap (every segment move
                    # reschedules on arrival).
                    heappush(self.heaps[seg], (when << SLOT_BITS) | slot)
        self.c_members[cslot] = kept

    # --------------------------------------------------------- selection --
    def pop_eligible(self, seg: int, now: int, limit: int) -> List[int]:
        """Up to ``limit`` eligible entries of ``seg``, oldest first (as
        slots).  Two stages: matured records graduate from the maturity
        heap into the ready heap, then the ``limit`` oldest valid
        candidates are taken; the rest stay in the ready heap for the next
        cycle, so a promotion backlog is never re-scanned or re-sorted."""
        heap = self.heaps[seg]
        ready = self.readys[seg]
        e_seq = self.e_seq
        e_seg = self.e_seg
        e_rseg = self.e_rseg
        e_elig = self.e_elig
        bound = (now + 1) << SLOT_BITS      # keys below have when <= now
        if heap and heap[0] < bound:
            if not ready:
                # Fast path: the matured batch alone decides this pop.
                batch: List[int] = []
                while heap and heap[0] < bound:
                    key = heappop(heap)
                    slot = key & SLOT_MASK
                    if (e_seq[slot] < 0 or e_seg[slot] != seg
                            or e_elig[slot] != key >> SLOT_BITS
                            or e_rseg[slot] == seg):
                        continue    # stale or duplicate maturity record
                    e_rseg[slot] = seg
                    batch.append((e_seq[slot] << SLOT_BITS) | slot)
                if len(batch) <= limit:
                    batch.sort()
                    out = []
                    for key in batch:
                        slot = key & SLOT_MASK
                        e_rseg[slot] = -1
                        out.append(slot)
                    return out
                ready[:] = batch
                heapify(ready)
            else:
                while heap and heap[0] < bound:
                    key = heappop(heap)
                    slot = key & SLOT_MASK
                    if (e_seq[slot] < 0 or e_seg[slot] != seg
                            or e_elig[slot] != key >> SLOT_BITS):
                        continue    # stale maturity record
                    if e_rseg[slot] != seg:
                        e_rseg[slot] = seg
                        heappush(ready, (e_seq[slot] << SLOT_BITS) | slot)
        if not ready:
            return []
        out = []
        while ready and len(out) < limit:
            key = heappop(ready)
            slot = key & SLOT_MASK
            if (e_rseg[slot] != seg or e_seq[slot] != key >> SLOT_BITS
                    or e_seg[slot] != seg):
                continue            # stale ready record
            e_rseg[slot] = -1
            out.append(slot)
        return out

    def _next_eligible_cycle(self, seg: int, now: int) -> int:
        """Earliest cycle any occupant of ``seg`` could promote out, or
        NEVER, discarding stale heap tops (behaviour-neutral: pop_eligible
        would skip them anyway)."""
        ready = self.readys[seg]
        e_seq = self.e_seq
        e_seg = self.e_seg
        while ready:
            key = ready[0]
            slot = key & SLOT_MASK
            if (self.e_rseg[slot] != seg
                    or e_seq[slot] != key >> SLOT_BITS
                    or e_seg[slot] != seg):
                heappop(ready)
                continue
            return now              # a matured candidate is waiting
        heap = self.heaps[seg]
        while heap:
            key = heap[0]
            slot = key & SLOT_MASK
            if (e_seq[slot] < 0 or e_seg[slot] != seg
                    or self.e_elig[slot] != key >> SLOT_BITS):
                heappop(heap)
                continue
            return key >> SLOT_BITS
        return NEVER

    def oldest_ineligible(self, seg: int, now: int,
                          count: int) -> List[int]:
        e_seq = self.e_seq
        e_elig = self.e_elig
        candidates = sorted((e_seq[slot], slot)
                            for slot in self.members[seg]
                            if e_elig[slot] > now)
        return [slot for _seq, slot in candidates[:count]]

    # --------------------------------------------------------- promotion --
    def promote_all(self, now: int, width: int, enable_pushdown: bool):
        """The fused SegmentedIQ.cycle promotion sweep (pop, membership
        move, destination reschedule, chain-head broadcast, pushdown).

        Returns ``(promotions, pushdowns, seg0_entries)`` where
        ``seg0_entries`` are the entry objects that arrived in segment 0
        this sweep, in arrival order (the queue enters them into its
        issue scheduling).  A moved entry that heads a queued chain
        re-broadcasts its new segment; trace events accumulate in the
        event buffer when collection is on, in the order of the moves.
        """
        cap = self.cap
        occ = self.occ
        free_prev = self.free_prev
        thr = self.thr
        members = self.members
        e_obj = self.e_obj
        e_seg = self.e_seg
        e_seq = self.e_seq
        e_elig = self.e_elig
        e_rseg = self.e_rseg
        e_own = self.e_own
        c_mode = self.c_mode
        c_base = self.c_base
        c_hseg = self.c_hseg
        collect = self.collect
        events = self.events
        promotions = 0
        pushdowns = 0
        seg0: List = []
        for k in range(1, self.num_segments):
            if not occ[k]:
                continue        # empty source: nothing to promote or push
            dk = k - 1
            capacity = width
            if free_prev[dk] < capacity:
                capacity = free_prev[dk]
            if cap - occ[dk] < capacity:
                capacity = cap - occ[dk]
            if capacity <= 0:
                continue
            heap = self.heaps[k]
            if self.readys[k] or (heap and heap[0] >> SLOT_BITS <= now):
                promoted = self.pop_eligible(k, now, capacity)
            else:
                promoted = ()
            if promoted:
                promotions += len(promoted)
                source_members = members[k]
                dest_members = members[dk]
                if dk:
                    threshold = thr[dk]
                    dest_ready = self.readys[dk]
                    dest_heap = self.heaps[dk]
                    for slot in promoted:
                        del source_members[slot]
                        e_seg[slot] = dk
                        dest_members[slot] = None
                        # Inlined destination schedule.  pop_eligible
                        # just cleared this entry's ready residency; a
                        # chain broadcast from an earlier entry in this
                        # batch can only have re-set it to the *source*
                        # segment, so marking the destination residency
                        # unconditionally is exact.
                        when = self._eligible_when(slot, threshold, now)
                        e_elig[slot] = when
                        if when <= now:
                            e_rseg[slot] = dk
                            heappush(dest_ready,
                                     (e_seq[slot] << SLOT_BITS) | slot)
                        elif when < NEVER:
                            heappush(dest_heap,
                                     (when << SLOT_BITS) | slot)
                        if collect:
                            events.append((e_obj[slot], k, dk, 0))
                        own = e_own[slot]
                        if own >= 0 and c_mode[own] == 0:
                            c_hseg[own] = dk
                            c_base[own] = 2 * dk
                            self.notify(own)
                else:
                    for slot in promoted:
                        del source_members[slot]
                        e_seg[slot] = 0
                        dest_members[slot] = None
                        obj = e_obj[slot]
                        if collect:
                            events.append((obj, k, 0, 0))
                        own = e_own[slot]
                        if own >= 0 and c_mode[own] == 0:
                            c_hseg[own] = 0
                            c_base[own] = 0
                            self.notify(own)
                        seg0.append(obj)
                occ[k] -= len(promoted)
                occ[dk] += len(promoted)
            # Pushdown (4.1): a nearly-full segment may push its oldest
            # ineligible instructions into an amply-free segment below
            # (2*free > 3*width is the integer form of free > 1.5*width).
            if (enable_pushdown
                    and len(promoted) < capacity
                    and cap - occ[k] < width
                    and 2 * free_prev[dk] > 3 * width):
                room = capacity - len(promoted)
                if room > width:
                    room = width
                source_members = members[k]
                dest_members = members[dk]
                for slot in self.oldest_ineligible(k, now, room):
                    if cap - occ[dk] <= 0:
                        break
                    del source_members[slot]
                    occ[k] -= 1
                    e_seg[slot] = dk
                    dest_members[slot] = None
                    occ[dk] += 1
                    obj = e_obj[slot]
                    pushdowns += 1
                    if dk:
                        self._schedule(slot, dk, now)
                    if collect:
                        events.append((obj, k, dk, 1))
                    own = e_own[slot]
                    if own >= 0 and c_mode[own] == 0:
                        c_hseg[own] = dk
                        c_base[own] = 2 * dk
                        self.notify(own)
                    if dk == 0:
                        seg0.append(obj)
        return promotions, pushdowns, seg0

    def next_promote_cycle(self, now: int, width: int,
                           enable_pushdown: bool) -> int:
        """The promotion/pushdown part of next_event_cycle: the earliest
        cycle anything could move, with the same per-segment gating as
        :meth:`promote_all`.  Idempotent (discards only stale records)."""
        cap = self.cap
        occ = self.occ
        free_prev = self.free_prev
        wake = NEVER
        for k in range(1, self.num_segments):
            if not occ[k]:
                continue
            dk = k - 1
            capacity = width
            if free_prev[dk] < capacity:
                capacity = free_prev[dk]
            if cap - occ[dk] < capacity:
                capacity = cap - occ[dk]
            if capacity <= 0:
                continue
            when = self._next_eligible_cycle(k, now)
            if when <= now:
                return now
            if when < wake:
                wake = when
            if (enable_pushdown
                    and cap - occ[k] < width
                    and 2 * free_prev[dk] > 3 * width):
                return now          # pushdown would promote this cycle
        return wake

    # ---------------------------------------------------------- dispatch --
    def _dispatch_target(self, active_count: int,
                         enable_bypass: bool) -> int:
        """Pick the dispatch segment (empty-segment bypass, 4.2); -1
        means a refusal the caller must count."""
        occ = self.occ
        cap = self.cap
        if not enable_bypass:
            top = active_count - 1
            if occ[top] >= cap:
                return -1
            return top
        highest = -1
        for index in range(active_count - 1, -1, -1):
            if occ[index]:
                highest = index
                break
        if highest < 0:
            return 0
        if occ[highest] < cap:
            return highest
        if highest + 1 < active_count:
            return highest + 1
        return -1

    # ------------------------------------------------------------- misc --
    def refresh_free_prev(self) -> None:
        cap = self.cap
        occ = self.occ
        free_prev = self.free_prev
        for index in range(self.num_segments):
            free_prev[index] = cap - occ[index]

    def reschedule_all(self, now: int) -> None:
        """Recompute every eligibility after a threshold refit."""
        for seg in range(1, self.num_segments):
            for slot in list(self.members[seg]):
                self._schedule(slot, seg, now)

    def seg_occ(self, seg: int) -> int:
        _in_range(seg, self.occ)
        return self.occ[seg]

    def occupancies(self) -> List[int]:
        return list(self.occ)

    def slots_of(self, seg: int) -> List[int]:
        _in_range(seg, self.members)
        return list(self.members[seg])

    def entries_of(self, seg: int) -> List:
        _in_range(seg, self.members)
        e_obj = self.e_obj
        return [e_obj[slot] for slot in self.members[seg]]

    def min_seq_slot(self, seg: int) -> int:
        _in_range(seg, self.members)
        best = -1
        best_seq = -1
        e_seq = self.e_seq
        for slot in self.members[seg]:
            if best < 0 or e_seq[slot] < best_seq:
                best_seq = e_seq[slot]
                best = slot
        return best

    def max_seq_slot(self, seg: int) -> int:
        _in_range(seg, self.members)
        best = -1
        best_seq = -1
        e_seq = self.e_seq
        for slot in self.members[seg]:
            if best < 0 or e_seq[slot] > best_seq:
                best_seq = e_seq[slot]
                best = slot
        return best


# --------------------------------------------------------------------------
# Backend selection
# --------------------------------------------------------------------------

_FORCED: Optional[str] = None


def _requested() -> str:
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_KERNELS", "auto").strip().lower() or "auto"


def set_backend(name: Optional[str]) -> None:
    """Force the kernel backend (``py`` | ``compiled`` | ``auto``);
    ``None`` restores the ``REPRO_KERNELS`` environment default.  Takes
    effect for engines built afterwards."""
    if name is not None and name not in ("py", "compiled", "auto"):
        raise ValueError(
            f"unknown kernel backend {name!r} (py, compiled or auto)")
    global _FORCED
    _FORCED = name


def compiled_module():
    """The compiled ``_ckernels`` module when new engines use it, else
    None (the ``py`` backend).  The one lookup behind every compiled type:
    the IQ and pipeline engines, the processor's stages and the native
    record replay."""
    requested = _requested()
    if requested == "py":
        return None
    from repro.common._ckload import compiled_kernels
    module = compiled_kernels(honor_env=False)
    if module is None and requested == "compiled":
        raise RuntimeError(
            "REPRO_KERNELS=compiled but the compiled kernel backend is "
            "not built; run `python -m repro.core.segmented.build` or "
            "use REPRO_KERNELS=py")
    return module


def backend() -> str:
    """The backend new engines will use: ``"py"`` or ``"compiled"``."""
    return "py" if compiled_module() is None else "compiled"


def make_engine(num_segments: int, capacity: int, thresholds):
    """Build a kernel engine with the selected backend."""
    module = compiled_module()
    if module is not None:
        return module.Engine(num_segments, capacity, list(thresholds))
    return PyKernelEngine(num_segments, capacity, thresholds)
