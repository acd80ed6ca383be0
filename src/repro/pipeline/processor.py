"""Top-level cycle-accurate out-of-order processor model.

Per-cycle stage order (see DESIGN.md section 7): drain memory events,
commit, LSQ memory issue, IQ issue, IQ internal maintenance (promotion for
the segmented design), dispatch, fetch.  Completions are event-scheduled at
issue time, so wakeups become visible at the top of the completion cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.common.errors import ConfigurationError, DeadlockError
from repro.common.events import EventQueue
from repro.common.params import ProcessorParams
from repro.common.stats import StatGroup
from repro.core.iq_base import InstructionQueue, Operand
from repro.core.segmented.links import NEVER
from repro.frontend.fetch import FrontEnd
from repro.isa.instruction import DynInst
from repro.isa.opcodes import FUClass, OpClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.events import TraceEvent
from repro.pipeline.fu import FUAcquire, FUPool
from repro.pipeline.kernels import rename_kernel
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.rob import ReorderBuffer


def build_iq(params: ProcessorParams, stats: StatGroup) -> InstructionQueue:
    """Instantiate the IQ design selected by ``params.iq.kind``.

    Designs live in the model registry (:mod:`repro.core.registry`);
    registering a new design there makes it constructible here, runnable
    from the CLI, and subject to the validation campaign and the
    cross-model conformance suite with no further wiring.
    """
    # Imported here (not at module load) to keep core model modules lazy.
    from repro.core.registry import get_model
    iq_params = params.iq
    iq_params.validate()
    return get_model(iq_params.kind).build(iq_params, params.issue_width,
                                           stats)


@dataclass(frozen=True)
class ProgressTick:
    """One heartbeat from a long :meth:`Processor.run`."""

    cycle: int
    committed: int
    elapsed_seconds: float
    kcycles_per_sec: float


#: Cycles between wall-clock checks on the progress path (keeps the
#: heartbeat overhead out of the per-cycle hot loop).
_PROGRESS_STRIDE = 4096


class _SkipReplay:
    """Fused per-cycle stat replay for quiescent stretches.

    One object per processor captures every stat the stepped loop would
    have touched over a quiescent cycle (core counters, ROB occupancy,
    the dispatch-stall attribution) so a skip window is replayed with a
    single call instead of a scatter of per-component lookups.  The
    design-specific hooks (``iq.skip_cycles`` and friends) stay dynamic
    attribute calls: tests and tools wrap them per instance.
    """

    __slots__ = ("_proc", "_stat_cycles", "_stat_skipped", "_stat_windows",
                 "_stall_rob", "_stall_lsq", "_stall_iq", "_stall_chain")

    def __init__(self, proc) -> None:
        self._proc = proc
        self._stat_cycles = proc.stat_cycles
        self._stat_skipped = proc.stat_skip_cycles
        self._stat_windows = proc.stat_skip_windows
        self._stall_rob = proc.stat_dispatch_stall_rob
        self._stall_lsq = proc.stat_dispatch_stall_lsq
        self._stall_iq = proc.stat_dispatch_stall_iq
        self._stall_chain = proc.stat_dispatch_stall_chain

    def replay(self, now: int, count: int, stall: str) -> None:
        self._stat_cycles.inc(count)
        self._stat_skipped.inc(count)
        self._stat_windows.inc()
        proc = self._proc
        iq = proc.iq
        iq.skip_cycles(now, count)
        proc.lsq.skip_cycles(now, count)
        proc.frontend.skip_cycles(now, count)
        rob = proc.rob      # dynamic: the ROB is swappable post-init
        rob.stat_occupancy.sample_n(len(rob), count)
        if stall == "rob":
            rob.stat_full_stalls.inc(count)
            self._stall_rob.inc(count)
        elif stall == "lsq":
            self._stall_lsq.inc(count)
        elif stall == "iq":
            self._stall_iq.inc(count)
            # The probe's can_dispatch call already covered cycle `now`.
            iq.skip_blocked_dispatch(count - 1)
        elif stall == "chain":
            self._stall_chain.inc(count)
            iq.skip_blocked_dispatch(count - 1)


class Processor:
    """Dynamically scheduled superscalar core running a dynamic stream."""

    def __init__(self, params: ProcessorParams, stream: Iterator[DynInst],
                 stats: Optional[StatGroup] = None, *,
                 tracer=None, metrics=None) -> None:
        params.validate()
        self.params = params
        # Hot-loop copies of per-cycle limits: attribute chains through
        # `params` show up in profiles at millions of cycles.
        self._commit_width = params.commit_width
        self._dispatch_width = params.dispatch_width
        self._watchdog = params.watchdog_cycles
        self._clustered = params.clusters > 1
        self.stats = stats if stats is not None else StatGroup()
        self.events = EventQueue()
        self.memory = MemoryHierarchy(params.memory, self.events, self.stats)
        self.frontend = FrontEnd(params, stream, self.memory.l1i,
                                 self.events, self.stats)
        self.fu_pool = FUPool(params.fu_counts, self.stats, params.clusters)
        self._fu_acquire = FUAcquire(self.fu_pool)
        # Fused C rename loop (pipeline kernel tier); clustered configs
        # keep the Python loop for its bypass-penalty bookkeeping.
        self._c_rename = None if self._clustered else rename_kernel()
        self.iq = build_iq(params, self.stats)
        self._cluster_load = [0] * params.clusters
        self.rob = ReorderBuffer(params.rob_size, self.stats)
        self.lsq = LoadStoreQueue(params.effective_lsq_size, self.memory,
                                  self.events, self.stats,
                                  iq=self.iq, fu_pool=self.fu_pool,
                                  policy=params.mem_dep_policy)
        # Give the segmented IQ access to the memory hierarchy for hit/miss
        # predictor training (it checks L1 residence at dispatch).
        if hasattr(self.iq, "attach_memory"):
            self.iq.attach_memory(self.memory)

        # Observability (repro.obs): every component holds the same tracer
        # and guards each emission with `if tracer is not None`, so a
        # disabled tracer costs one attribute load per potential event.
        self.tracer = tracer
        self.frontend.tracer = tracer
        self.lsq.tracer = tracer
        self.iq.attach_tracer(tracer)
        if metrics is not None and not hasattr(metrics, "sample"):
            from repro.obs.metrics import MetricsCollector
            metrics = MetricsCollector(metrics)
        self.metrics = metrics

        self._last_writer: Dict[int, DynInst] = {}
        self.cycle = 0
        self.committed = 0
        self._halt_committed = False
        self._last_commit_cycle = 0

        #: Called with (inst, cycle) the moment each instruction commits;
        #: the validation oracle uses this to record the retired stream.
        self.commit_listeners: List[Callable[[DynInst, int], None]] = []
        self.invariant_checker = None
        if params.check_invariants:
            # Imported here so benchmark runs never touch the validation
            # package.
            from repro.validation.invariants import InvariantChecker
            self.invariant_checker = InvariantChecker(self)

        self.stat_cycles = self.stats.counter("cycles")
        self.stat_committed = self.stats.counter("committed")
        self.stat_dispatch_stall_iq = self.stats.counter(
            "dispatch.stall_iq", "dispatch stalls: IQ full")
        self.stat_dispatch_stall_chain = self.stats.counter(
            "dispatch.stall_chain", "dispatch stalls: no free chain wire")
        self.stat_dispatch_stall_rob = self.stats.counter(
            "dispatch.stall_rob", "dispatch stalls: ROB full")
        self.stat_dispatch_stall_lsq = self.stats.counter(
            "dispatch.stall_lsq", "dispatch stalls: LSQ full")
        self.stat_dispatched = self.stats.counter("dispatched")
        self.stat_cross_cluster = self.stats.counter(
            "clusters.cross_forwards",
            "operands forwarded across clusters (pay the bypass penalty)")

        # Event-driven cycle skipping (docs/performance.md).  Enabled only
        # inside run() so direct step() callers keep 1-call-per-cycle
        # semantics, and only without the invariant checker (its value is
        # per-cycle coverage, which skipping would silently thin out).
        self._event_driven = params.event_driven
        self._skip_enabled = False
        self._cycle_limit = 1 << 62
        self._skip_stall = ""
        self.stat_skip_cycles = self.stats.counter(
            "skip.cycles_skipped",
            "quiescent cycles fast-forwarded without stepping")
        self.stat_skip_windows = self.stats.counter(
            "skip.windows", "contiguous quiescent stretches skipped")
        self._skip_replay = _SkipReplay(self)

    # ------------------------------------------------------------ warmup --
    def warm_code(self, program) -> None:
        """Pre-install the program's code footprint in L1I and L2.

        The paper simulates 100 M-instruction samples taken 20 B
        instructions into execution, i.e. with warm instruction caches; our
        samples are short, so benchmarks warm the code explicitly to avoid
        charging every run a cold straight-line I-miss sequence.
        """
        from repro.frontend.fetch import INST_BYTES
        line = self.params.memory.l1i.line_bytes
        for byte_addr in range(0, len(program) * INST_BYTES, line):
            self.memory.l1i.warm_line(byte_addr)
            self.memory.l2.warm_line(byte_addr)

    def warm_data(self, program) -> None:
        """Pre-install the program's data segments in L2 (not L1D).

        Useful for modelling steady-state behaviour of kernels whose
        working set is L2-resident.
        """
        line = self.params.memory.l2.line_bytes
        for segment in program.segments.values():
            for byte_addr in range(segment.base, segment.base + segment.bytes,
                                   line):
                self.memory.l2.warm_line(byte_addr)

    def load_warm_state(self, warm: Dict[str, dict]) -> None:
        """Install microarchitectural state from an architectural checkpoint.

        ``warm`` is the checkpoint's warm-state dict (see
        :mod:`repro.sampling.checkpoint`): branch predictor + BTB tables
        under ``"frontend"``, per-level cache tags under ``"caches"``.
        Must be called before the first :meth:`step`.
        """
        if self.cycle:
            raise ConfigurationError(
                "warm state must be installed before simulation starts")
        if "frontend" in warm:
            self.frontend.load_warm_state(warm["frontend"])
        if "caches" in warm:
            self.memory.load_tag_state(warm["caches"])

    # --------------------------------------------------------------- run --
    @property
    def done(self) -> bool:
        return (self._halt_committed
                or (self.frontend.drained and len(self.rob) == 0))

    def run(self, max_cycles: Optional[int] = None, *,
            max_committed: Optional[int] = None,
            progress: Optional[Callable[[ProgressTick], None]] = None,
            progress_interval: float = 5.0) -> StatGroup:
        """Simulate until the program halts (or a budget is exhausted).

        ``max_cycles`` bounds simulated cycles; ``max_committed`` stops the
        simulation at the end of the first cycle in which the cumulative
        commit count reaches it (the sampling subsystem uses this to end
        warmup and measurement phases on instruction boundaries).  Both
        budgets are cumulative across repeated ``run`` calls, so a run can
        be resumed by calling ``run`` again with a larger budget.

        ``progress``, if given, is called with a :class:`ProgressTick`
        roughly every ``progress_interval`` wall-clock seconds — the
        heartbeat behind the CLI's ``--progress N``.
        """
        limit = max_cycles if max_cycles is not None else 1 << 62
        commit_limit = max_committed if max_committed is not None else 1 << 62
        self._cycle_limit = limit
        self._skip_enabled = (self._event_driven
                              and self.invariant_checker is None)
        try:
            if progress is None:
                while (not self.done and self.cycle < limit
                       and self.committed < commit_limit):
                    self.step()
            else:
                start = last = time.monotonic()
                last_cycle = self.cycle
                next_check = self.cycle + _PROGRESS_STRIDE
                while (not self.done and self.cycle < limit
                       and self.committed < commit_limit):
                    self.step()
                    if self.cycle >= next_check:
                        next_check = self.cycle + _PROGRESS_STRIDE
                        now = time.monotonic()
                        if now - last >= progress_interval:
                            rate = (self.cycle - last_cycle) / (now - last) / 1e3
                            progress(ProgressTick(
                                cycle=self.cycle, committed=self.committed,
                                elapsed_seconds=now - start,
                                kcycles_per_sec=rate))
                            last, last_cycle = now, self.cycle
        finally:
            self._skip_enabled = False
            self._cycle_limit = 1 << 62
        self.stat_committed.value = self.committed
        return self.stats

    def step(self) -> None:
        """Advance one cycle (or skip a quiescent stretch, then advance
        the first *active* cycle — see docs/performance.md)."""
        now = self.cycle
        if self._skip_enabled:
            wake = self._next_active_cycle(now)
            while wake > now:
                self._apply_skip(now, wake - now)
                self.cycle = wake
                if wake >= self._cycle_limit:
                    return      # budget exhausted mid-stretch
                now = wake
                # Coalesce adjacent windows: a long miss shadow steps
                # through several memory-hierarchy events (L1 -> L2 ->
                # memory), each of which wakes the core without enabling
                # any pipeline stage.  Fire the due events; if the
                # machine is still quiescent, keep skipping instead of
                # paying for a full per-stage step per event.
                if self.events.next_event_cycle() != now:
                    break       # woken for a stage, not an event
                self.events.advance_to(now)
                wake = self._next_active_cycle(now)
        self.events.advance_to(now)
        self._commit(now)
        self.lsq.cycle(now)
        self._issue(now)
        # Pending events imply instructions in execution (completions,
        # cache fills); the segmented IQ's deadlock detector (paper 4.5)
        # must not fire while any are outstanding.
        iq = self.iq
        iq.in_flight = len(self.events)
        iq.last_commit_cycle = self._last_commit_cycle
        iq.cycle(now)
        self._dispatch(now)
        self.frontend.cycle(now)
        self.rob.stat_occupancy.sample(len(self.rob))
        metrics = self.metrics
        if metrics is not None and now >= metrics.next_cycle:
            metrics.sample(self, now)
        if self.invariant_checker is not None:
            self.invariant_checker.check(now)
        self.cycle = now + 1
        self.stat_cycles.inc()
        if now - self._last_commit_cycle > self._watchdog:
            raise DeadlockError(
                f"no commit for {self.params.watchdog_cycles} cycles at "
                f"cycle {now}: rob={len(self.rob)} iq={self.iq.occupancy} "
                f"head={self.rob.head()!r}")

    @property
    def ipc(self) -> float:
        return self.committed / self.cycle if self.cycle else 0.0

    # ------------------------------------------------------ event-driven --
    def _next_active_cycle(self, now: int) -> int:
        """First cycle >= ``now`` on which any stage could act.

        Returns ``now`` itself when the current cycle is (or merely might
        be) active; waking early is always safe — the probe just re-runs —
        so every check only has to be conservative in that direction.  The
        dispatch probe runs last because ``can_dispatch`` has side effects
        (stall counters) and must be called exactly once per blocked cycle.
        """
        self._skip_stall = ""
        ev = self.events.next_event_cycle()
        if 0 <= ev <= now:
            return now          # completions / fills land this cycle
        wake = ev if ev > now else NEVER

        head = self.rob.head()
        if head is not None and head.completed_cycle >= 0:
            return now          # commit retires at least one entry

        if self.lsq.has_candidates():
            return now          # a memory access may go to the cache

        iq = self.iq
        iq.in_flight = len(self.events)
        iq.last_commit_cycle = self._last_commit_cycle
        iq_wake = iq.next_event_cycle(now)
        if iq_wake <= now:
            return now
        if iq_wake < wake:
            wake = iq_wake

        metrics = self.metrics
        if metrics is not None:
            if now >= metrics.next_cycle:
                return now
            if metrics.next_cycle < wake:
                wake = metrics.next_cycle

        # The watchdog must still fire at the same cycle it would have
        # fired under plain stepping: never skip past its deadline.
        deadline = self._last_commit_cycle + self._watchdog + 1
        if deadline <= now:
            return now
        if deadline < wake:
            wake = deadline

        fe = self.frontend
        fe_wake = fe.next_event_cycle(now)
        if fe_wake <= now:
            return now
        if fe_wake < wake:
            wake = fe_wake

        # Dispatch: probe once, remember why it is blocked so the stall
        # counters can be replayed for the whole stretch.
        if now < self.lsq.violation_flush_until:
            if self.lsq.violation_flush_until < wake:
                wake = self.lsq.violation_flush_until
        else:
            inst = fe.peek_dispatchable(now)
            rob = self.rob
            lsq = self.lsq
            if inst is None:
                if fe._pipeline and fe._pipeline[0][0] < wake:
                    wake = fe._pipeline[0][0]
            elif len(rob._entries) >= rob.size:     # has_space, inlined
                self._skip_stall = "rob"
            elif inst.op_class in (OpClass.HALT, OpClass.NOP,
                                   OpClass.JUMP):
                return now      # would dispatch (bypasses the IQ)
            elif inst.is_mem and len(lsq._order) >= lsq.size:
                self._skip_stall = "lsq"
            else:
                prev_iq_now = getattr(iq, "now", None)
                if prev_iq_now is not None:
                    iq.now = now
                admitted = iq.can_dispatch(inst)
                if prev_iq_now is not None:
                    iq.now = prev_iq_now
                if admitted:
                    return now
                if getattr(iq, "blocked_on_chain", False):
                    self._skip_stall = "chain"
                else:
                    self._skip_stall = "iq"
                bd_wake = iq.blocked_dispatch_wake(now)
                if bd_wake < wake:
                    wake = bd_wake

        if self._cycle_limit < wake:
            wake = self._cycle_limit
        return wake

    def _apply_skip(self, now: int, count: int) -> None:
        """Replay the per-cycle accounting of ``count`` quiescent cycles
        [now, now+count) in O(1) (fused into one replay object)."""
        self._skip_replay.replay(now, count, self._skip_stall)

    # ------------------------------------------------------------ commit --
    def _commit(self, now: int) -> None:
        rob_entries = self.rob._entries
        if not rob_entries:
            return
        lsq = self.lsq
        listeners = self.commit_listeners
        tracer = self.tracer
        committed = 0
        width = self._commit_width
        while committed < width and rob_entries:
            inst = rob_entries[0]
            completed = inst.completed_cycle
            if completed < 0 or completed > now:
                break
            rob_entries.popleft()
            inst.committed_cycle = now
            if inst.is_mem:
                lsq.commit(inst, now)
            if inst.static.is_halt:
                self._halt_committed = True
            committed += 1
            if tracer is not None:
                tracer.emit(TraceEvent(cycle=now, kind="commit",
                                       seq=inst.seq, pc=inst.pc,
                                       op=inst.static.opcode.value))
            for listener in listeners:
                listener(inst, now)
        if committed:
            self.committed += committed
            self._last_commit_cycle = now

    # ------------------------------------------------------------- issue --
    def _issue(self, now: int) -> None:
        acquire_fu = self._fu_acquire
        acquire_fu.now = now
        issued = self.iq.select_issue(now, acquire_fu)
        if not issued:
            return
        checker = self.invariant_checker
        tracer = self.tracer
        clustered = self._clustered
        events = self.events
        lsq = self.lsq
        # Inlined _start_execution (one call per issued instruction).
        for entry in issued:
            if checker is not None:
                checker.check_issue(entry, now)
            inst = entry.inst
            inst.issued_cycle = now
            if tracer is not None:
                tracer.emit(TraceEvent(cycle=now, kind="issue",
                                       seq=inst.seq, pc=inst.pc,
                                       op=inst.static.opcode.value))
            if clustered:
                self._cluster_load[inst.cluster] -= 1
            if inst.is_mem:
                # The IQ issued the effective-address calculation (1-cycle
                # add); the LSQ takes over once the address is available.
                ea_cycle = now + 1
                events.schedule_at(
                    ea_cycle,
                    lambda inst=inst, ea_cycle=ea_cycle:
                        lsq.address_ready(inst, ea_cycle))
                continue
            done = now + inst.latency
            inst.set_value_ready(done)
            events.schedule_at(
                done, lambda inst=inst, done=done: self._complete(inst, done))

    def _complete(self, inst: DynInst, cycle: int) -> None:
        inst.completed_cycle = cycle
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(TraceEvent(cycle=cycle, kind="writeback",
                                   seq=inst.seq, pc=inst.pc,
                                   op=inst.static.opcode.value,
                                   dst=inst.dest if inst.dest is not None
                                   else -1))
        self.iq.on_writeback(inst, cycle)
        if inst.mispredicted and inst.is_branch:
            if tracer is not None:
                tracer.emit(TraceEvent(cycle=cycle, kind="squash",
                                       seq=inst.seq, pc=inst.pc,
                                       op=inst.static.opcode.value,
                                       info="branch_mispredict"))
            self.frontend.branch_resolved(inst, cycle)

    # ---------------------------------------------------------- dispatch --
    def _dispatch(self, now: int) -> None:
        """Dispatch up to ``dispatch_width`` decoded instructions.

        One flat loop (rename and per-instruction admission checks
        inlined): this runs for every instruction the machine executes,
        so each helper call and repeated attribute chain costs real
        simulator throughput.
        """
        lsq = self.lsq
        if now < lsq.violation_flush_until:
            return      # squash penalty after a memory-order violation
        pipeline = self.frontend._pipeline
        if not pipeline or pipeline[0][0] > now:
            return
        rob = self.rob
        rob_entries = rob._entries
        rob_size = rob.size
        # Admission is inlined only for the stock ROB; a subclass (e.g.
        # the negative-testing BrokenROB) keeps its dispatch override.
        plain_rob = type(rob) is ReorderBuffer
        iq = self.iq
        tracer = self.tracer
        clustered = self._clustered
        c_rename = self._c_rename
        last_writer = self._last_writer
        dispatched = 0
        width = self._dispatch_width
        while dispatched < width and pipeline and pipeline[0][0] <= now:
            inst = pipeline[0][1]
            if len(rob_entries) >= rob_size:
                rob.stat_full_stalls.inc()
                self.stat_dispatch_stall_rob.inc()
                break
            op_class = inst.op_class

            if op_class in (OpClass.HALT, OpClass.NOP, OpClass.JUMP):
                # No register work: completes at dispatch.  A mispredicted
                # jump (BTB miss) was already charged by stalling fetch
                # until the decode stage could compute the target; release
                # fetch now.
                if plain_rob:
                    inst.rob_index = len(rob_entries)
                    rob_entries.append(inst)
                else:
                    rob.dispatch(inst)
                inst.dispatched_cycle = now
                inst.completed_cycle = now
                if tracer is not None:
                    tracer.emit(TraceEvent(
                        cycle=now, kind="dispatch", seq=inst.seq, pc=inst.pc,
                        op=inst.static.opcode.value, info="bypass_iq"))
                if inst.mispredicted and op_class is OpClass.JUMP:
                    self.frontend.branch_resolved(inst, now)
                pipeline.popleft()
                dispatched += 1
                continue

            is_mem = inst.is_mem
            if is_mem and len(lsq._order) >= lsq.size:  # has_space, inlined
                self.stat_dispatch_stall_lsq.inc()
                break
            if not iq.can_dispatch(inst):
                if iq.blocked_on_chain:
                    self.stat_dispatch_stall_chain.inc()
                else:
                    self.stat_dispatch_stall_iq.inc()
                break

            if clustered:
                inst.cluster = self._steer_cluster(inst, now)
                self._cluster_load[inst.cluster] += 1
            # Rename (inlined _operand_for over the IQ-relevant sources).
            srcs = inst.srcs
            if c_rename is not None:
                operands = c_rename(Operand, last_writer, srcs,
                                    1 if is_mem else -1)
            else:
                operands = []
                for reg in (srcs[:1] if is_mem else srcs):
                    producer = last_writer.get(reg) if reg != 0 else None
                    if producer is None:
                        operands.append(Operand(reg, None, 0, 0))
                        continue
                    penalty = 0
                    if (clustered and producer.cluster != inst.cluster
                            and producer.completed_cycle < 0):
                        penalty = self.params.cluster_bypass_penalty
                        self.stat_cross_cluster.inc()
                    ready = producer.value_ready_cycle
                    if ready is not None:
                        ready += penalty
                        penalty = 0  # folded in; no late wakeup will come
                    operands.append(Operand(reg, producer, ready, penalty))
            if plain_rob:
                inst.rob_index = len(rob_entries)
                rob_entries.append(inst)
            else:
                rob.dispatch(inst)
            inst.dispatched_cycle = now
            if is_mem:
                data_ready, data_producer = self._store_data_operand(inst)
                lsq.dispatch(inst, data_ready, data_producer)
            entry = iq.dispatch(inst, operands, now)
            if tracer is not None:
                own_chain = getattr(entry.chain_state, "own_chain", None)
                tracer.emit(TraceEvent(
                    cycle=now, kind="dispatch", seq=inst.seq, pc=inst.pc,
                    op=inst.static.opcode.value, seg=iq.segment_of(entry),
                    dst=inst.dest if inst.dest is not None else -1,
                    chain=own_chain.chain_id
                    if own_chain is not None else -1))
            dest = inst.dest
            if dest is not None and dest != 0:
                last_writer[dest] = inst
            pipeline.popleft()
            dispatched += 1
        if dispatched:
            self.stat_dispatched.inc(dispatched)

    def _steer_cluster(self, inst: DynInst, now: int) -> int:
        """Pick an execution cluster (section-7 horizontal clustering)."""
        steering = self.params.cluster_steering
        if steering == "chain" and hasattr(self.iq, "preferred_cluster"):
            preferred = self.iq.preferred_cluster(inst, now)
            if preferred is not None:
                return preferred
        if steering in ("chain", "dependence"):
            for reg in (inst.srcs[:1] if inst.is_mem else inst.srcs):
                producer = self._last_writer.get(reg)
                if producer is not None and producer.value_ready_cycle is None:
                    return producer.cluster
        return min(range(self.params.clusters),
                   key=lambda c: self._cluster_load[c])

    def _operand_for(self, reg: int,
                     consumer: Optional[DynInst] = None) -> Operand:
        if reg == 0:
            return Operand(reg=reg, ready_cycle=0)
        producer = self._last_writer.get(reg)
        if producer is None:
            return Operand(reg=reg, ready_cycle=0)
        penalty = 0
        if (self._clustered and consumer is not None
                and producer.cluster != consumer.cluster
                and producer.completed_cycle < 0):
            penalty = self.params.cluster_bypass_penalty
            self.stat_cross_cluster.inc()
        ready = producer.value_ready_cycle
        if ready is not None:
            ready += penalty
            penalty = 0     # already folded in; no late wakeup will come
        return Operand(reg=reg, producer=producer, ready_cycle=ready,
                       penalty=penalty)

    def _store_data_operand(self, inst: DynInst):
        if not inst.is_store:
            return None, None
        data_reg = inst.srcs[1]
        operand = self._operand_for(data_reg)
        return operand.ready_cycle, operand.producer
