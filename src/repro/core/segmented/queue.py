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
engine (:mod:`repro.core.segmented.kernels`, optionally compiled); this
class keeps the policy — dispatch planning, predictors, issue
scheduling, deadlock recovery, resizing — and reads the engine back for
everything else (:meth:`SegmentedIQ.segment_of`, the ``Chain``
properties).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.params import IQParams
from repro.common.stats import StatGroup
from repro.core.iq_base import IQEntry, InstructionQueue, Operand
from repro.core.predictors import HitMissPredictor, LeftRightPredictor
from repro.obs.events import TraceEvent
from repro.core.segmented.chains import Chain, ChainManager
from repro.core.segmented.kernels import make_engine
from repro.core.segmented.links import (NEVER, ChainLink, CountdownLink,
                                        combined_delay)
from repro.core.segmented.register_info import RegisterInfoTable, RITEntry

#: object.__new__, hoisted: the dispatch path builds its IQEntry /
#: SegmentState / RITEntry with direct slot stores instead of running
#: the constructor frames (exact inlining; one allocation per object).
_new = object.__new__

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
    direct slot stores by ``SegmentedIQ.dispatch`` and its compiled
    twin, ``engine.admit``.
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
        self._segment_size = params.segment_size
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
        # (occupancy, segment index) decided by the last successful
        # can_dispatch, so the dispatch that follows skips a second search.
        self._target_cache: Optional[Tuple[int, int]] = None

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

        # Fused C admission: when the compiled engine offers bind_admit,
        # hand it the classes the dispatch path instantiates plus the
        # dispatched counter; dispatch then funnels the whole admission
        # body through one engine.admit call.  The inlined Python body
        # below stays as the pure-Python twin.
        self._c_admit = False
        if getattr(self._engine, "kind", "py") == "compiled":
            bind = getattr(self._engine, "bind_admit", None)
            if bind is not None:
                bind(SegmentState, RITEntry, IQEntry,
                     self.stat_dispatched, PREDICTED_LOAD_LATENCY)
                self._c_admit = True

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
        cached = self._plan_cache.get(inst.seq)
        if cached is not None:
            return cached

        if self._c_admit:
            # The fused RIT scan (bit-identical to the loop below).
            links = self._engine.plan_links(self.rit._entries, inst, now)
        else:
            iq_regs = inst.srcs[:1] if inst.is_mem else inst.srcs
            # Packed links: a chain link is a (chain, dh) pair, a
            # countdown link its bare ready cycle (int) — no link
            # objects here.
            links = []
            reg_base = inst.thread * 64      # _reg_key, inlined
            # The RIT read: classify each source's producer as exactly
            # known, a live chain, a freed chain, or chainless.
            rit_entries = self.rit._entries
            for reg in iq_regs:
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
                        links.append(
                            now + rchain.member_delay(rentry.dh, now))
                    continue
                if rentry.expected_ready > now:
                    links.append(rentry.expected_ready)

        lrp = self.lrp
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
            hmp = self.hmp
            predicted_hit = (hmp is not None
                             and hmp.predict_hit(inst.pc, inst.seq))
            if not predicted_hit:
                needs_chain = True
                head_latency = PREDICTED_LOAD_LATENCY
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
        plan = _new(DispatchPlan)
        plan.countdown_ready = countdown
        plan.chain_pairs = pairs
        plan.needs_chain = needs_chain
        plan.lrp_choice = lrp_choice
        plan.lrp_consulted = lrp_consulted
        plan.head_latency = head_latency
        self._plan_cache[inst.seq] = plan
        return plan

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
        self.blocked_on_chain = False
        self._target_cache = None
        target = self._engine.dispatch_target(self.active_segments,
                                              self._enable_bypass)
        if target < 0:
            self._full_refusals += 1
            return False
        plan = self._plan(inst, self.now)
        if plan.needs_chain and not self.chains.has_free():
            self.blocked_on_chain = True
            self.chains.stat_alloc_failures.inc()
            return False
        self._target_cache = (self._occupancy, target)
        return True

    # --------------------------------------------------------- dispatch --
    def dispatch(self, inst, operands: List[Operand], now: int) -> IQEntry:
        plan = self._plan_cache.pop(inst.seq, None)
        if plan is None:
            plan = self._plan(inst, now)
            del self._plan_cache[inst.seq]
        engine = self._engine
        # Reuse the target can_dispatch just computed; occupancy is the
        # cheap staleness guard (inserts and removals both change it).
        cached, self._target_cache = self._target_cache, None
        if (cached is not None and cached[0] == self._occupancy
                and engine.seg_occ(cached[1]) < self._segment_size):
            target = cached[1]
        else:
            target = engine.dispatch_target(self.active_segments,
                                            self._enable_bypass)
            if target < 0:
                self._full_refusals += 1
        if target < 0:
            raise SimulationError("dispatch into a full segmented IQ")
        if target < self.num_segments - 1:
            self.stat_bypass.inc()

        chain = None
        if plan.needs_chain:
            chain = self.chains.allocate(inst, engine, target,
                                         plan.head_latency, now=now)
            if chain is None:
                raise SimulationError("dispatch without a free chain wire")
            self._head_chains[inst.seq] = chain
            self.stat_chain_heads.inc()

        if self._c_admit:
            # The compiled engine runs the entire admission body —
            # operation-for-operation identical to the Python block
            # below — in one C call.
            return engine.admit(self, self.rit._entries, inst, operands,
                                plan, chain, target, now)

        # IQEntry / SegmentState construction with direct slot stores
        # (exact inlining of IQEntry.__init__ and the operand-wakeup
        # subscription: one pass over the operands, no constructor frames
        # — this path runs once per simulated instruction).  The entry's
        # segment lives in the engine only (see segment_of).
        entry = _new(IQEntry)
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
        state = _new(SegmentState)
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
                    operand.producer.waiters.append((self, entry, index))
        c0 = c1 = -1
        dh0 = dh1 = 0
        if pairs:
            c0 = pairs[0][0].cslot
            dh0 = pairs[0][1]
            if len(pairs) > 1:
                c1 = pairs[1][0].cslot
                dh1 = pairs[1][1]
        own = chain.cslot if chain is not None else -1
        state.slot = engine.insert_entry(entry, inst.seq, target,
                                         countdown, c0, dh0, c1, dh1,
                                         own, now)
        self._occupancy += 1
        self.stat_dispatched.inc()
        if target == 0 and not unknown:
            engine.p0_push(state.slot, max(ready, now + 1))
        # _update_rit, inlined (RITEntry stored with direct slot writes).
        dest = inst.dest
        if dest is None or dest == 0:
            return entry
        own_latency = (PREDICTED_LOAD_LATENCY if inst.is_load
                       else inst.latency)
        rentry = _new(RITEntry)
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
        self.rit._entries[inst.thread * 64 + dest] = rentry
        return entry

    @staticmethod
    def _reg_key(inst, reg: int) -> int:
        """RIT key for an architected register: per-thread namespaces so
        SMT threads never alias each other's registers."""
        return inst.thread * 64 + reg

    # ----------------------------------------------------------- wakeup --
    def on_entry_ready_known(self, entry: IQEntry) -> None:
        if not entry.issued:
            slot = entry.chain_state.slot
            if self._engine.seg_of(slot) == 0:
                self._engine.p0_push(slot, entry.ready_cycle)

    # ------------------------------------------------------------ issue --
    def select_issue(self, now: int, acquire_fu) -> List[IQEntry]:
        self.now = now
        engine = self._engine
        engine.set_now(now)
        self._issued_this_cycle = False
        # A caller that exposes its FU kernel engine (the processor's
        # FUAcquire) lets the compiled engine fuse the FU check into its
        # issue loop; any plain callable takes the generic path.  Both
        # are bit-identical — the fused check claims the same unit with
        # the same stat increments the callable would have.
        fu_engine = getattr(acquire_fu, "fu_engine", None)
        count, issued = engine.issue_select(now, self.issue_width,
                                            fu_engine, acquire_fu)
        self.stat_seg0_ready.sample(count)
        if issued:
            self._issued_this_cycle = True
            self.stat_issued.inc(len(issued))
            lrp = self.lrp
            for entry in issued:
                # The engine freed the slot; finish the object-side issue
                # bookkeeping (the old _do_issue minus the engine call).
                entry.issued = True
                self._occupancy -= 1
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

    # -------------------------------------------------------- promotion --
    def cycle(self, now: int) -> None:
        self.now = now
        engine = self._engine
        engine.set_now(now)
        promotions, pushdowns, seg0_entries = engine.promote_all(
            now, self.issue_width, self._enable_pushdown)
        self._promoted_this_cycle = bool(promotions or pushdowns)
        if promotions or pushdowns:
            self.stat_promotions.inc(promotions + pushdowns)
        if pushdowns:
            self.stat_pushdowns.inc(pushdowns)
        if seg0_entries:
            p0_push = engine.p0_push
            later = now + 1
            for entry in seg0_entries:
                if not entry.unknown_count:
                    ready = entry.ready_cycle
                    p0_push(entry.chain_state.slot,
                            ready if ready > later else later)
        tracer = self.tracer
        if tracer is not None:
            for entry, src, dst, pushdown in engine.drain_events():
                tracer.emit(TraceEvent(
                    cycle=now, kind="promote", seq=entry.seq,
                    pc=entry.inst.pc, op=entry.inst.static.opcode.value,
                    seg=src, dst=dst, info="pushdown" if pushdown else ""))

        self._check_deadlock(now)
        engine.refresh_free_prev()
        self.chains.sample()
        self.stat_occupancy.sample(self._occupancy)
        if self._dynamic_resize:
            self._resize_controller(now)
        if (self._adaptive_thresholds and now
                and now % self._threshold_update_interval == 0):
            self._refit_thresholds(now)

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

    def _check_deadlock(self, now: int) -> None:
        """Detect and break resource deadlock (paper section 4.5).

        The paper's condition: the IQ is not empty, nothing issued or
        promoted, and nothing is in execution.  We add a patience-based
        backstop for livelock (e.g. pushdown churn with a wedged segment
        0, which arises from left/right-predictor misassignment exactly
        as section 4.5 describes).
        """
        if self._issued_this_cycle:
            self._last_issue_cycle = now
        if self._occupancy == 0:
            self._last_issue_cycle = now
            return
        strict = (not self._issued_this_cycle
                  and not self._promoted_this_cycle
                  and self.in_flight == 0)
        progress = max(self._last_issue_cycle, self.last_commit_cycle)
        patience_expired = now - progress > self.NO_ISSUE_PATIENCE
        if not strict and not patience_expired:
            return
        self._recover(now)

    def _recover(self, now: int) -> None:
        """One recovery cycle: every full segment evicts one instruction
        simultaneously (a circular shift when everything is full), so each
        segment is guaranteed a free entry next cycle."""
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
        chain = self._head_chains.get(inst.seq)
        if chain is not None:
            chain.suspend(now)
            if self.tracer is not None:
                self.tracer.emit(TraceEvent(
                    cycle=now, kind="chain_wire", seq=inst.seq, pc=inst.pc,
                    chain=chain.chain_id, info="suspend"))

    def notify_load_complete(self, inst, now: int) -> None:
        if self.hmp is not None and inst.mem_level is not None:
            self.hmp.train(inst.pc, inst.seq, inst.mem_level)
        chain = self._head_chains.pop(inst.seq, None)
        if chain is not None:
            chain.resume(now)
            if self.tracer is not None:
                self.tracer.emit(TraceEvent(
                    cycle=now, kind="chain_wire", seq=inst.seq, pc=inst.pc,
                    chain=chain.chain_id, info="resume"))
            self.chains.free(chain, now=now)

    def on_writeback(self, inst, now: int) -> None:
        chain = self._head_chains.pop(inst.seq, None)
        if chain is not None:
            self.chains.free(chain, now=now)

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
