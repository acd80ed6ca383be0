"""The segmented dependence-chain instruction queue (the paper's design).

The IQ is a pipeline of small segments.  Instructions dispatch into the top
(bypassing leading empty segments, section 4.2), carry *delay values*
maintained through dependence chains (sections 3.1-3.3), promote downward
as their delay drops below each segment threshold, and issue out of segment
0 — which schedules on *actual* operand readiness, exactly like a small
conventional IQ.  Enhancements: pushdown (4.1), hit/miss and left/right
predictors (4.3-4.4), and deadlock detection/recovery (4.5).

The segmented-IQ state (segment membership, eligibility, the promotion
heaps, chain delay constants) lives only in a struct-of-arrays kernel
engine (:mod:`repro.core.segmented.kernels`, pure Python or compiled).
The engine also runs the segmented IQ's policy, the same calls on both
backends: ``_plan``, ``can_dispatch``, ``dispatch`` (chain allocation
and the predictor consults included), ``select_issue`` (with the chain
head's issue signal and left/right-predictor training), ``cycle`` (the
promotion sweep and its counters, segment-0 arrivals, deadlock
detection, the chain-wire and occupancy samples) and the load and
writeback hooks (suspend, resume, the wire free and hit/miss training)
are one engine call each, and the engine's ``on_entry_ready_known`` is
installed as this queue's operand wakeup hook.  This class keeps what
fires rarely — deadlock recovery (:meth:`SegmentedIQ._recover`),
resizing and threshold refits, which the engine calls when they fire or
are enabled — the trace emission of promotions, the event-driven probes
and the invariant checks, and reads the engine back for everything
else (:meth:`SegmentedIQ.segment_of`, the ``Chain`` properties).
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.params import IQParams
from repro.common.stats import StatGroup
from repro.core.iq_base import IQEntry, InstructionQueue, Operand
from repro.core.predictors import (HIT_LEVELS, HitMissPredictor,
                                   LeftRightPredictor)
from repro.obs.events import TraceEvent
from repro.core.segmented.chains import Chain, ChainManager
from repro.core.segmented.kernels import make_engine
from repro.core.segmented.links import (NEVER, ChainLink, CountdownLink,
                                        combined_delay)
from repro.core.segmented.register_info import RegisterInfoTable, RITEntry

#: Predicted latency of a load from IQ issue: 1-cycle EA calculation plus
#: the L1 data-cache hit latency (3 cycles in Table 1).
PREDICTED_LOAD_LATENCY = 4


class DispatchPlan:
    """Chain assignment decided for one instruction at dispatch.

    Links are kept packed — ``countdown_ready`` is the governing (max)
    known-arrival cycle or -1, ``chain_pairs`` the ``(chain, dh)`` pairs
    in operand order — so the per-dispatch path allocates no link
    objects (``SegmentState.links`` rebuilds them on demand for the
    diagnostic readers)."""

    __slots__ = ("countdown_ready", "chain_pairs", "needs_chain",
                 "lrp_choice", "lrp_consulted", "head_latency")

    def __init__(self, countdown_ready, chain_pairs, needs_chain,
                 lrp_choice, lrp_consulted, head_latency) -> None:
        self.countdown_ready = countdown_ready
        self.chain_pairs = chain_pairs
        self.needs_chain = needs_chain
        self.lrp_choice = lrp_choice
        self.lrp_consulted = lrp_consulted
        self.head_latency = head_latency


class SegmentState:
    """Per-entry segmented-IQ dispatch record (``entry.chain_state``).

    Written once at dispatch and never changed afterwards: the packed
    links (``countdown_ready`` and the ``(chain, dh)`` ``chain_pairs``),
    the entry's own chain, the left/right-predictor choice, and the
    engine ``slot`` holding the entry's scheduling state.  Built with
    direct slot stores by the engine's ``dispatch``.
    """

    __slots__ = ("_links", "own_chain", "lrp_choice", "lrp_consulted",
                 "countdown_ready", "chain_pairs", "slot")

    @property
    def links(self):
        """Link objects for the diagnostic readers (invariant checks,
        threshold refits, delay_of).  Rebuilt on demand from the packed
        form; equivalent under every consumer because the entry delay is
        the max over links and multiple countdowns collapse to the max."""
        links = self._links
        if links is None:
            links = []
            if self.countdown_ready >= 0:
                links.append(CountdownLink(self.countdown_ready))
            for chain, dh in self.chain_pairs:
                links.append(ChainLink(chain, dh))
            self._links = links
        return links


class SegmentView:
    """Public per-segment surface (``iq.segments[k]``) over engine state."""

    __slots__ = ("index", "capacity", "_engine")

    def __init__(self, index: int, capacity: int, engine) -> None:
        self.index = index
        self.capacity = capacity
        self._engine = engine

    @property
    def occupancy(self) -> int:
        return self._engine.seg_occ(self.index)

    @property
    def free(self) -> int:
        return self.capacity - self._engine.seg_occ(self.index)

    @property
    def is_empty(self) -> bool:
        return not self._engine.seg_occ(self.index)

    @property
    def is_full(self) -> bool:
        return self._engine.seg_occ(self.index) >= self.capacity

    @property
    def promote_threshold(self) -> int:
        return self._engine.threshold(self.index)

    @promote_threshold.setter
    def promote_threshold(self, value: int) -> None:
        self._engine.set_threshold(self.index, value)

    def __repr__(self) -> str:
        return (f"Segment({self.index}, occ={self.occupancy}/"
                f"{self.capacity})")


class SegmentedIQ(InstructionQueue):
    """Segmented IQ with chain-based promotion."""

    def __init__(self, params: IQParams, issue_width: int,
                 stats: StatGroup) -> None:
        super().__init__(params.size)
        params.validate()
        self.params = params
        self.issue_width = issue_width
        self.stats = stats
        step = params.threshold_step
        self.num_segments = params.num_segments
        # Segment j admits instructions with delay < step*(j+1); promotion
        # out of segment k therefore requires delay < step*k.
        self._engine = make_engine(
            self.num_segments, params.segment_size,
            [step * j for j in range(self.num_segments)])
        self.kernel_backend = self._engine.kind
        self.segments = [SegmentView(j, params.segment_size, self._engine)
                         for j in range(self.num_segments)]
        self.chains = ChainManager(params.max_chains, stats)
        self.rit = RegisterInfoTable()
        self.hmp = (HitMissPredictor(stats,
                                     counter_bits=params.hmp_counter_bits,
                                     confidence=params.hmp_confidence)
                    if params.use_hit_miss_predictor else None)
        self.lrp = (LeftRightPredictor(stats)
                    if params.use_left_right_predictor else None)

        self.now = 0
        self.in_flight = 0          # set by the processor each cycle
        self.blocked_on_chain = False
        self._occupancy = 0
        # Hot-loop copies of per-dispatch constants (attribute chains
        # through `params` are visible at 20k dispatches per run).
        self._enable_bypass = params.enable_bypass
        self._enable_pushdown = params.enable_pushdown
        self._dynamic_resize = params.dynamic_resize
        self._resize_interval = params.resize_interval
        self._adaptive_thresholds = params.adaptive_thresholds
        self._threshold_update_interval = params.threshold_update_interval
        self._head_chains: Dict[int, Chain] = {}   # head seq -> chain
        self._plan_cache: Dict[int, DispatchPlan] = {}
        self._issued_this_cycle = False
        self._promoted_this_cycle = False
        self._last_issue_cycle = 0
        # Dynamic resizing (section 7): dispatch is restricted to the
        # bottom `active_segments`; gated segments drain naturally.
        self.active_segments = self.num_segments
        self._full_refusals = 0

        self.stat_dispatched = stats.counter("iq.dispatched")
        self.stat_issued = stats.counter("iq.issued")
        self.stat_promotions = stats.counter("iq.promotions")
        self.stat_pushdowns = stats.counter(
            "iq.pushdowns", "promotions forced by the pushdown rule")
        self.stat_bypass = stats.counter(
            "iq.bypass_dispatches", "dispatches that bypassed empty segments")
        self.stat_two_chain = stats.counter(
            "iq.two_chain_instructions",
            "instructions with two outstanding operands in different chains")
        self.stat_chain_heads = stats.counter("iq.chain_heads")
        self.stat_deadlocks = stats.counter("iq.deadlock_recoveries")
        self.stat_recycles = stats.counter(
            "iq.deadlock_recycles", "segment-0 entries recycled to the top")
        self.stat_resize_grow = stats.counter("iq.resize_grow")
        self.stat_resize_shrink = stats.counter("iq.resize_shrink")
        self.stat_threshold_refits = stats.counter(
            "iq.threshold_refits", "adaptive-threshold recomputations")
        self.stat_powered = stats.counter(
            "iq.powered_segment_cycles",
            "sum over cycles of segments that are active or still draining")
        self.stat_active_segments = stats.distribution("iq.active_segments")
        self.stat_occupancy = stats.distribution("iq.occupancy")
        self.stat_seg0_ready = stats.distribution(
            "iq.seg0_ready", "issue-ready instructions in segment 0")

        # The policy runs in the engine, the same calls on both backends.
        # As an instance attribute the engine's wakeup hook is what
        # producers call, with no queue frame per woken entry.
        chains = self.chains
        self._engine.bind(
            (DispatchPlan, SegmentState, RITEntry, IQEntry, Chain),
            (self._plan_cache, self.rit._entries, self._head_chains,
             chains, chains._active, chains._free_ids),
            (self.stat_dispatched, self.stat_two_chain, self.stat_bypass,
             self.stat_chain_heads, self.stat_issued, self.stat_seg0_ready,
             self.stat_promotions, self.stat_pushdowns, self.stat_occupancy,
             chains.stat_allocated, chains.stat_alloc_failures,
             chains.stat_in_use),
            (PREDICTED_LOAD_LATENCY, self.NO_ISSUE_PATIENCE, HIT_LEVELS))
        self.on_entry_ready_known = self._engine.on_entry_ready_known

    # ------------------------------------------------------------ space --
    def attach_tracer(self, tracer) -> None:
        super().attach_tracer(tracer)
        self.chains.tracer = tracer
        self._engine.set_collect(tracer is not None)

    @property
    def occupancy(self) -> int:
        return self._occupancy

    # --------------------------------------------------------- planning --
    def _plan(self, inst, now: int) -> DispatchPlan:
        """Decide chain membership / creation for ``inst`` (cached so that
        can_dispatch and dispatch agree and predictors are consulted once).
        """
        return self._engine.plan(self, inst, now)

    def preferred_cluster(self, inst, now: int):
        """Cluster of the chain this instruction will follow, if any
        (section-7 clustering: members execute beside their chain head)."""
        plan = self._plan(inst, now)
        pairs = plan.chain_pairs
        if not pairs:
            return None
        governing = pairs[0]
        for pair in pairs[1:]:
            if pair[1] > governing[1]:
                governing = pair
        return governing[0].cluster

    def can_dispatch(self, inst) -> bool:
        return self._engine.can_dispatch(self, inst)

    # --------------------------------------------------------- dispatch --
    def dispatch(self, inst, operands: List[Operand], now: int) -> IQEntry:
        return self._engine.dispatch(self, inst, operands, now)

    # ------------------------------------------------------------ issue --
    def select_issue(self, now: int, acquire_fu) -> List[IQEntry]:
        return self._engine.select_issue(self, now, acquire_fu)

    # -------------------------------------------------------- promotion --
    def cycle(self, now: int) -> None:
        """One cycle of promotion, deadlock detection and bookkeeping
        (the engine's ``cycle``)."""
        self._engine.cycle(self, now)

    def _trace_promotions(self, now: int) -> None:
        """Emit this cycle's promotions and pushdowns, in the order the
        sweep made them (the engine calls this after the sweep while a
        tracer is attached)."""
        tracer = self.tracer
        for entry, src, dst, pushdown in self._engine.drain_events():
            if tracer is not None:
                tracer.emit(TraceEvent(
                    cycle=now, kind="promote", seq=entry.seq,
                    pc=entry.inst.pc, op=entry.inst.static.opcode.value,
                    seg=src, dst=dst, info="pushdown" if pushdown else ""))

    # ------------------------------------------------------ event-driven --
    def next_event_cycle(self, now: int) -> int:
        """Earliest cycle the queue can issue, promote, push down, resize,
        or recover — or ``now`` when the current cycle is already active.

        Mirrors exactly the conditions :meth:`select_issue` and
        :meth:`cycle` act on; waking early is harmless (the probe re-runs)
        but waking late would break bit-identity, so every branch here is
        conservative.
        """
        # Segment 0 holds issue candidates (even stale heap records make
        # the cycle active: select_issue samples iq.seg0_ready before
        # filtering them out).
        wake = self._engine.p0_next(now)
        if wake <= now:
            return now
        if self._dynamic_resize:
            interval = self._resize_interval
            if now and now % interval == 0:
                return now
            boundary = (now // interval + 1) * interval
            if boundary < wake:
                wake = boundary
        if self._adaptive_thresholds:
            interval = self._threshold_update_interval
            if now and now % interval == 0:
                return now
            boundary = (now // interval + 1) * interval
            if boundary < wake:
                wake = boundary
        # Promotion / pushdown, segment by segment (the same gating as
        # cycle(): nothing moves out of a segment whose budget is zero).
        when = self._engine.next_promote_cycle(now, self.issue_width,
                                               self._enable_pushdown)
        if when <= now:
            return now
        if when < wake:
            wake = when
        # Deadlock detection: in a quiescent cycle nothing issues or
        # promotes, so the strict condition reduces to in_flight == 0 and
        # the patience backstop to its deadline.
        if self._occupancy:
            if self.in_flight == 0:
                return now
            deadline = (max(self._last_issue_cycle, self.last_commit_cycle)
                        + self.NO_ISSUE_PATIENCE + 1)
            if deadline <= now:
                return now
            if deadline < wake:
                wake = deadline
        return wake

    def skip_cycles(self, now: int, count: int) -> None:
        """Replay the per-cycle bookkeeping of ``count`` quiescent cycles:
        the stat samples select_issue/cycle would have taken, and the
        clock (left on the *last* skipped cycle, exactly where a stepped
        loop would leave it when the next active cycle begins)."""
        self.now = now + count - 1
        self._engine.set_now(now + count - 1)
        self.stat_seg0_ready.sample_n(0, count)
        self.chains.sample_n(count)
        self.stat_occupancy.sample_n(self._occupancy, count)
        if self.params.dynamic_resize:
            self.stat_powered.inc(self._highest_powered() * count)
            self.stat_active_segments.sample_n(self.active_segments, count)

    def skip_blocked_dispatch(self, count: int) -> None:
        """Replay ``count`` refused can_dispatch probes (one per skipped
        dispatch-blocked cycle beyond the probe's own call)."""
        if self.blocked_on_chain:
            self.chains.stat_alloc_failures.inc(count)
        else:
            self._full_refusals += count

    def blocked_dispatch_wake(self, now: int) -> int:
        # Admission depends on segment occupancies (change only via
        # issue/promotion), chain wires (freed only via writeback/load
        # events) and active_segments (changes only at resize boundaries,
        # already capped by next_event_cycle) — all of which wake the
        # processor on their own.
        return NEVER

    def _refit_thresholds(self, now: int) -> None:
        """Adaptive thresholds (the section-4.1 alternative to pushdown):
        refit each segment's admission threshold to the quantiles of the
        current delay distribution, so occupancy spreads evenly however
        skewed the delays are.  Segment 0 keeps the fixed threshold of 2
        (the back-to-back issue requirement)."""
        delays = sorted(combined_delay(entry.chain_state.links, now)
                        for entry in self.iter_entries())
        if len(delays) < self.num_segments:
            return
        engine = self._engine
        step = self.params.threshold_step
        # threshold(j) is the admission bound of segment j; segment k's
        # promote gate (k -> k-1) is threshold(k-1).  Segment 0's bound
        # stays at `step`.
        previous = step
        thresholds = [step]
        for j in range(1, self.num_segments):
            quantile = delays[min(len(delays) - 1,
                                  (j * len(delays)) // self.num_segments)]
            threshold = max(previous + 1, quantile + 1)
            thresholds.append(threshold)
            previous = threshold
        for k in range(1, self.num_segments):
            engine.set_threshold(k, thresholds[k - 1])
        self.stat_threshold_refits.inc()
        # Eligibility caches depend on thresholds: recompute everything.
        engine.reschedule_all(now)

    # ---------------------------------------------------------- resizing --
    def _highest_powered(self) -> int:
        """Index just past the last segment that must stay clocked: the
        active region plus any gated segments still draining."""
        powered = self.active_segments
        engine = self._engine
        for index in range(self.num_segments - 1, self.active_segments - 1,
                           -1):
            if engine.seg_occ(index):
                powered = index + 1
                break
        return powered

    def _resize_controller(self, now: int) -> None:
        """Occupancy-driven power gating (paper section 7).

        Grow when dispatch recently stalled on a full active region;
        shrink when the active region runs well under the low watermark.
        """
        powered = self._highest_powered()
        self.stat_powered.inc(powered)
        self.stat_active_segments.sample(self.active_segments)
        if now == 0 or now % self.params.resize_interval:
            return
        if self._full_refusals > 0:
            if self.active_segments < self.num_segments:
                self.active_segments += 1
                self.stat_resize_grow.inc()
        else:
            capacity = self.active_segments * self.params.segment_size
            low = self.params.resize_low_watermark * capacity
            if (self._occupancy < low
                    and self.active_segments > self.params.min_active_segments):
                self.active_segments -= 1
                self.stat_resize_shrink.inc()
        self._full_refusals = 0

    # ---------------------------------------------------------- deadlock --
    #: Cycles without any issue *or commit* before recovery fires even
    #: while other activity (promotions, outstanding loads) continues.
    #: Backstops livelocks the paper's strict condition cannot see.  Set
    #: above the main-memory round trip so an ordinary miss stall (during
    #: which commits pause for ~110 cycles) never triggers it.
    NO_ISSUE_PATIENCE = 160

    def _recover(self, now: int) -> None:
        """One recovery cycle: every full segment evicts one instruction
        simultaneously (a circular shift when everything is full), so each
        segment is guaranteed a free entry next cycle.

        The engine's ``cycle`` detects resource deadlock (paper section
        4.5) and calls this: when the IQ is not empty and nothing issued,
        promoted or is in execution (the paper's condition), or when
        nothing issued or committed for ``NO_ISSUE_PATIENCE`` cycles (a
        backstop for livelock the strict condition cannot see, such as
        pushdown churn over a segment 0 wedged by left/right-predictor
        misassignment, exactly as section 4.5 describes)."""
        self.stat_deadlocks.inc()
        engine = self._engine
        capacity = self.params.segment_size
        moves = []       # (slot, destination segment index)
        top_index = self._highest_powered() - 1
        if engine.seg_occ(0) >= capacity and top_index != 0:
            # Segment 0 full of non-ready instructions: recycle the
            # youngest back to the top (highest powered) segment.
            moves.append((engine.max_seq_slot(0), top_index))
            self.stat_recycles.inc()
        for k in range(1, self.num_segments):
            if engine.seg_occ(k) < capacity:
                continue
            eligible = engine.pop_eligible(k, now, 1)
            if eligible:
                victim = eligible[0]
            else:
                candidates = engine.oldest_ineligible(k, now, 1)
                victim = candidates[0] if candidates \
                    else engine.min_seq_slot(k)
            moves.append((victim, k - 1))
        if self.tracer is not None:
            self.tracer.emit(TraceEvent(
                cycle=now, kind="deadlock_recovery",
                info=f"moves={len(moves)}"))
        # Remove everything first, then insert: the simultaneous shift
        # works even when every segment is full.
        for slot, _dest in moves:
            engine.detach(slot)
        for slot, dest in moves:
            self._place_recovered(slot, dest, now)
        if moves:
            self._promoted_this_cycle = True
            self._last_issue_cycle = now     # restart the patience clock

    def _place_recovered(self, slot: int, dest: int, now: int) -> None:
        engine = self._engine
        entry = engine.entry_obj(slot)
        engine.attach(slot, dest, now)
        if self.tracer is not None:
            self.tracer.emit(TraceEvent(
                cycle=now, kind="promote", seq=entry.seq, pc=entry.inst.pc,
                op=entry.inst.static.opcode.value, dst=dest,
                info="recovery"))
        state = entry.chain_state
        if state.own_chain is not None and not state.own_chain.issued:
            state.own_chain.on_head_promoted(dest)
        if dest == 0 and entry.all_sources_known:
            engine.p0_push(slot, max(entry.ready_cycle, now + 1))

    # ------------------------------------------------------------- hooks --
    def notify_load_miss(self, inst, now: int) -> None:
        """A load heading a chain missed: suspend its chain."""
        self._engine.load_miss(self, inst, now)

    def notify_load_complete(self, inst, now: int) -> None:
        """A load completed: train the hit/miss predictor, resume and
        free its chain."""
        self._engine.load_complete(self, inst, now)

    def on_writeback(self, inst, now: int) -> None:
        """An instruction wrote back: free the chain it heads."""
        self._engine.writeback(self, inst, now)

    # -------------------------------------------------------- invariants --
    def iter_entries(self):
        """All buffered (un-issued) entries, segment by segment."""
        engine = self._engine
        for seg in range(self.num_segments):
            yield from engine.entries_of(seg)

    def check(self, now: int) -> None:
        """Segmented-IQ invariants over the engine state (see
        docs/validation.md):

        * per-segment capacity, and membership consistency: every slot a
          segment lists records that segment (``seg_of``) and holds a
          live, un-issued entry under its own sequence number;
        * the occupancy counter equals the sum of segment occupancies;
        * admission thresholds grow monotonically with segment index;
        * chain-wire pool bounded, every active chain consistent;
        * a queued chain head's broadcast segment agrees with the segment
          its entry actually occupies, and its delay constants are the
          queued algebra's (``base == 2 * head_segment``; members read
          ``2 * head_segment + dh``, so a missed promotion broadcast
          corrupts every member's delay);
        * no entry follows a chain that was freed before its head issued.
        """
        from repro.common.errors import InvariantViolation
        super().check(now)
        engine = self._engine
        capacity = self.params.segment_size
        total = 0
        for k in range(self.num_segments):
            occ = engine.seg_occ(k)
            if occ > capacity:
                raise InvariantViolation(
                    f"segment {k} holds {occ} > "
                    f"capacity {capacity} at cycle {now}")
            total += occ
            for slot in engine.slots_of(k):
                entry = engine.entry_obj(slot)
                seq = engine.slot_seq(slot)
                if entry.seq != seq:
                    raise InvariantViolation(
                        f"segment {k} keys entry #{entry.seq} "
                        f"under seq {seq}")
                seg = engine.seg_of(slot)
                if seg != k:
                    raise InvariantViolation(
                        f"entry #{entry.seq} thinks it is in segment "
                        f"{seg} but occupies segment {k}")
                if entry.issued:
                    raise InvariantViolation(
                        f"issued entry #{entry.seq} still occupies "
                        f"segment {k} at cycle {now}")
        if total != self._occupancy:
            raise InvariantViolation(
                f"IQ occupancy counter {self._occupancy} != "
                f"{total} buffered entries at cycle {now}")
        previous = -1
        for k in range(1, self.num_segments):
            threshold = engine.threshold(k)
            if threshold < previous:
                raise InvariantViolation(
                    f"segment {k} promote threshold "
                    f"{threshold} below segment "
                    f"{k - 1}'s {previous}")
            previous = threshold
        self.chains.check(now, self.num_segments)
        for entry in self.iter_entries():
            own = entry.chain_state.own_chain
            if own is not None and not own.issued:
                seg = self.segment_of(entry)
                head_segment = own.head_segment
                if head_segment != seg:
                    raise InvariantViolation(
                        f"chain {own.chain_id} broadcasts head segment "
                        f"{head_segment} but head #{entry.seq} occupies "
                        f"segment {seg} at cycle {now}")
                if (own.mode != Chain.MODE_QUEUED
                        or own.base != 2 * head_segment):
                    raise InvariantViolation(
                        f"queued chain {own.chain_id} broadcasts mode "
                        f"{own.mode} base {own.base}, not the queued "
                        f"delay 2 * {head_segment} at cycle {now}")
            for link in entry.chain_state.links:
                if (isinstance(link, ChainLink) and link.chain.freed
                        and not link.chain.issued):
                    raise InvariantViolation(
                        f"entry #{entry.seq} follows chain "
                        f"{link.chain.chain_id}, freed before its head "
                        f"issued, at cycle {now}")

    # ------------------------------------------------------------- debug --
    def segment_of(self, entry: IQEntry) -> int:
        """Segment a buffered entry occupies (read from the engine)."""
        return self._engine.seg_of(entry.chain_state.slot)

    def delay_of(self, entry: IQEntry) -> int:
        """Current delay value of an entry (for tests and examples)."""
        return combined_delay(entry.chain_state.links, self.now)

    def segment_occupancies(self) -> List[int]:
        return self._engine.occupancies()
