"""Top-level cycle-accurate out-of-order processor model.

Per-cycle stage order (see DESIGN.md section 7): fire due events
(completions, memory fills), commit, LSQ memory issue, IQ issue, IQ
internal maintenance (promotion for the segmented design), dispatch,
fetch.  Completions are typed event records scheduled at issue time, so
wakeups become visible at the top of the completion cycle.

With one stream per hardware thread (the paper's section-7 SMT study),
threads share the IQ and its chains, the function units, the LSQ, the
caches and the event queue; each has its own front end, rename map and
an equal slice of the ROB.  Fetch is ICOUNT (the unfinished thread with
the fewest ROB entries fetches at full width), dispatch bandwidth is
shared least-loaded thread first, and commit is round-robin.  A thread's
code and data live in its own address region (:func:`thread_stream`), so
cache interference is real but the LSQ never matches across threads; a
single stream runs unwrapped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.common.errors import ConfigurationError, DeadlockError
from repro.common.events import EventQueue, _PyEventQueue
from repro.common.params import ProcessorParams
from repro.common.stats import StatGroup
from repro.core.iq_base import InstructionQueue, IQEntry, Operand
from repro.core.segmented.kernels import compiled_module
from repro.core.segmented.links import NEVER
from repro.frontend.fetch import INST_BYTES, FrontEnd
from repro.isa.instruction import DynInst
from repro.isa.opcodes import WORD_BYTES, FUClass, OpClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.cache import _MSHR
from repro.memory.request import (LEVEL_DELAYED, LEVEL_FORWARD, LEVEL_MEM,
                                  MemRequest)
from repro.obs.events import TraceEvent
from repro.pipeline.fu import FUAcquire, FUPool
from repro.pipeline.lsq import FORWARD_LATENCY, LoadStoreQueue, LSQEntry
from repro.pipeline.rob import ReorderBuffer

#: Per-thread address-space offsets of a multi-thread run.
DATA_SPACE_BYTES = 256 * 1024 * 1024
CODE_SPACE_BYTES = 16 * 1024 * 1024


def thread_stream(stream: Iterator[DynInst],
                  thread: int) -> Iterator[DynInst]:
    """Tag a dynamic stream with its hardware thread and shift its data
    addresses into the thread's private region."""
    data_offset = thread * DATA_SPACE_BYTES
    for inst in stream:
        inst.thread = thread
        if inst.mem_addr is not None:
            inst.mem_addr += data_offset
        yield inst


def build_iq(params: ProcessorParams, stats: StatGroup) -> InstructionQueue:
    """Instantiate the IQ design selected by ``params.iq.kind`` from the
    design table, :data:`repro.harness.configs.DESIGNS`."""
    # Imported here: repro.harness imports this module.
    from repro.harness.configs import DESIGNS
    iq_params = params.iq
    iq_params.validate()
    design = DESIGNS[iq_params.kind]
    return design.iq_class()(iq_params, params.issue_width, stats)


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
    the dispatch-stall attribution of every thread) so a skip window is
    replayed with a single call instead of a scatter of per-component
    lookups.  The design-specific hooks (``iq.skip_cycles`` and friends)
    stay dynamic attribute calls: tests and tools wrap them per instance.
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

    def replay(self, now: int, count: int, stalls: List[str]) -> None:
        """``stalls`` holds one cause per thread whose dispatch head was
        blocked, in the order the stepped loop would have charged them."""
        self._stat_cycles.inc(count)
        self._stat_skipped.inc(count)
        self._stat_windows.inc()
        proc = self._proc
        iq = proc.iq
        iq.skip_cycles(now, count)
        proc.lsq.skip_cycles(now, count)
        rob = proc.rob      # dynamic: the ROB is swappable post-init
        threads = proc.num_threads
        if threads == 1:
            proc.frontend.skip_cycles(now, count)
            rob.stat_occupancy.sample_n(len(rob._entries), count)
        else:
            # ROB lengths are frozen over the window, so ICOUNT names the
            # front end the probe checked.
            fetcher = proc._icount()
            if fetcher is not None:
                fetcher.skip_cycles(now, count)
            rob.stat_occupancy.sample_n(proc._rob_occupancy(), count)
            proc._commit_rotor = (proc._commit_rotor + count) % threads
        for stall in stalls:
            if stall == "rob":
                rob.stat_full_stalls.inc(count)
                self._stall_rob.inc(count)
            elif stall == "lsq":
                self._stall_lsq.inc(count)
                if threads > 1:
                    # Each refused attempt drew a fresh global seq.
                    proc._global_seq += count
            elif stall == "iq":
                self._stall_iq.inc(count)
                # The probe's can_dispatch call already covered cycle `now`.
                iq.skip_blocked_dispatch(count - 1)
            elif stall == "chain":
                self._stall_chain.inc(count)
                iq.skip_blocked_dispatch(count - 1)


class Processor:
    """Dynamically scheduled superscalar core.  ``stream`` is one dynamic
    stream, or a list of them, one per hardware thread."""

    def __init__(self, params: ProcessorParams,
                 stream: Union[Iterator[DynInst], Sequence[Iterator[DynInst]]],
                 stats: Optional[StatGroup] = None, *,
                 tracer=None, metrics=None) -> None:
        params.validate()
        streams = (list(stream) if isinstance(stream, (list, tuple))
                   else [stream])
        if not streams:
            raise ConfigurationError("a processor needs at least one stream")
        threads = len(streams)
        if threads > 1:
            if params.clusters > 1:
                raise ConfigurationError(
                    "multi-thread runs do not support clustering")
            streams = [thread_stream(each, thread)
                       for thread, each in enumerate(streams)]
        self.num_threads = threads
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
        self.frontends = [FrontEnd(params, each, self.memory.l1i,
                                   self.events, self.stats)
                          for each in streams]
        for thread, frontend in enumerate(self.frontends):
            frontend.code_base = thread * CODE_SPACE_BYTES
        self.frontend = self.frontends[0]
        self.fu_pool = FUPool(params.fu_counts, self.stats, params.clusters)
        self._fu_acquire = FUAcquire(self.fu_pool)
        self.iq = build_iq(params, self.stats)
        self._cluster_load = [0] * params.clusters
        rob_size = (params.rob_size if threads == 1
                    else max(8, params.rob_size // threads))
        #: One ROB per thread; ``rob`` is thread 0's.
        self.robs = [ReorderBuffer(rob_size, self.stats)
                     for _ in range(threads)]
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
        for frontend in self.frontends:
            frontend.tracer = tracer
        self.lsq.tracer = tracer
        self.iq.attach_tracer(tracer)
        if metrics is not None and not hasattr(metrics, "sample"):
            from repro.obs.metrics import MetricsCollector
            metrics = MetricsCollector(metrics)
        self.metrics = metrics

        #: Per-thread rename maps (architectural register -> last writer).
        self._last_writers: List[Dict[int, DynInst]] = [
            {} for _ in range(threads)]
        self._last_writer = self._last_writers[0]
        self.cycle = 0
        self.committed = 0
        self._halted = [False] * threads
        self._last_commit_cycle = 0
        # Multi-thread bookkeeping: the global age order dispatch
        # re-sequences instructions into, and the commit round-robin.
        self._global_seq = 0
        self._commit_rotor = 0
        self._thread_committed = (
            [self.stats.counter(f"thread{t}.committed")
             for t in range(threads)] if threads > 1 else [])

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
        # Compiled stages (pipeline kernel tier), bound once here from
        # the one lookup of the compiled module.  Traced and multi-thread
        # runs keep the Python bodies of dispatch, issue, fetch and commit
        # (per-stage events, thread arbitration, ICOUNT, round-robin
        # commit).
        module = compiled_module()
        self._c_dispatch = self._c_issue = self._c_commit = None
        if module is not None and EventQueue is not _PyEventQueue:
            # Memory: each cache level and main memory hand their
            # accesses, fills and refills to a cache stage, and the LSQ
            # its dispatch, address_ready, commit and each cycle to the
            # memory stage; their records fire in C from the compiled
            # event queue.  The memory system emits no trace event (the
            # store-set violation check, which does, stays Python) and
            # the LSQ keys its stores by (thread, word), so every run
            # binds them.
            memory = self.memory
            main_memory = memory.main_memory
            main_memory._c_stage = module.CacheStage(main_memory, LEVEL_MEM)
            for cache in (memory.l2, memory.l1d, memory.l1i):
                cache._c_stage = module.CacheStage(
                    cache, cache.level_label,
                    LEVEL_DELAYED if cache._classify_delayed
                    else cache.level_label, _MSHR)
            stage = module.MemStage(self.lsq, IQEntry, LSQEntry, MemRequest,
                                    FORWARD_LATENCY, LEVEL_FORWARD,
                                    WORD_BYTES)
            self.lsq._c_stage = stage
            self.lsq._c_cycle = stage.run
        if module is not None and threads == 1 and tracer is None:
            if not self._clustered:
                # Dispatch: one C call per cycle runs _dispatch's loop.
                # Clustered runs keep the Python loop (steering, bypass
                # penalties), and so does a non-stock ROB: the rob setter
                # unbinds the stage.
                self._c_dispatch = module.DispatchStage(
                    Operand, self._last_writer, self._dispatch_width,
                    self.stat_dispatch_stall_rob,
                    self.stat_dispatch_stall_lsq,
                    self.stat_dispatch_stall_iq,
                    self.stat_dispatch_stall_chain, self.stat_dispatched,
                    OpClass.HALT, OpClass.NOP, OpClass.JUMP).run
                # Issue: one C call per cycle runs _issue, and the
                # completions it schedules fire in C from the compiled
                # event queue, so it needs that queue (the only one
                # self.events ever is).  Clustered and invariant-checked
                # runs keep the Python methods (cluster load, per-issue
                # checks).
                if (self.invariant_checker is None
                        and EventQueue is not _PyEventQueue):
                    self._c_issue = module.IssueStage(
                        self, self._fu_acquire, IQEntry).run
            # Fetch and commit: FrontEnd.cycle hands its cycle to the
            # fetch stage, and step calls the commit stage in place of
            # _retire.
            frontend = self.frontend
            icache = self.memory.l1i
            frontend._c_fetch = module.FetchStage(
                params.fetch_width, params.max_branches_per_fetch,
                params.dispatch_pipeline_depth, frontend._buffer_cap,
                INST_BYTES, icache.params.line_bytes.bit_length() - 1,
                frontend.stat_icache_stall_cycles,
                frontend.stat_branch_stall_cycles,
                frontend.stat_buffer_full_cycles,
                frontend.stat_fetched, frontend.stat_fetch_cycles,
                icache.stat_accesses, icache.stat_hits, frontend.btb,
                frontend.bpred, OpClass.JUMP).run
            self._c_commit = module.CommitStage(self._commit_width).run

        # Event-driven cycle skipping (docs/performance.md).  Enabled only
        # inside run() so direct step() callers keep 1-call-per-cycle
        # semantics, and only without the invariant checker (its value is
        # per-cycle coverage, which skipping would silently thin out).
        self._event_driven = params.event_driven
        self._skip_enabled = False
        self._cycle_limit = 1 << 62
        self._skip_stalls: List[str] = []
        self.stat_skip_cycles = self.stats.counter(
            "skip.cycles_skipped",
            "quiescent cycles fast-forwarded without stepping")
        self.stat_skip_windows = self.stats.counter(
            "skip.windows", "contiguous quiescent stretches skipped")
        self._skip_replay = _SkipReplay(self)

    # ------------------------------------------------------------ threads --
    @property
    def rob(self) -> ReorderBuffer:
        """Thread 0's ROB (the only one of a single-thread run)."""
        return self.robs[0]

    @rob.setter
    def rob(self, rob: ReorderBuffer) -> None:
        # The compiled dispatch stage drives the stock ROB only.
        self.robs[0] = rob
        self._c_dispatch = None

    def _rob_occupancy(self) -> int:
        """Instructions buffered in every thread's ROB."""
        return sum(len(rob._entries) for rob in self.robs)

    def _thread_done(self, thread: int) -> bool:
        # The ROB first: ``drained`` costs three Python calls.
        return (self._halted[thread]
                or (not self.robs[thread]._entries
                    and self.frontends[thread].drained))

    def _icount(self) -> Optional[FrontEnd]:
        """The front end that fetches this cycle in a multi-thread run:
        the unfinished thread with the fewest ROB entries (lowest thread
        on a tie), or None when every thread is done."""
        unfinished = [thread for thread in range(self.num_threads)
                      if not self._thread_done(thread)]
        if not unfinished:
            return None
        robs = self.robs
        return self.frontends[min(
            unfinished, key=lambda thread: len(robs[thread]._entries))]

    def _dispatch_order(self) -> List[int]:
        """Threads in dispatch order: least-loaded ROB first."""
        robs = self.robs
        return sorted(range(self.num_threads),
                      key=lambda thread: len(robs[thread]._entries))

    @property
    def committed_per_thread(self) -> List[int]:
        """Instructions each hardware thread committed."""
        if self.num_threads == 1:
            return [self.committed]
        return [counter.value for counter in self._thread_committed]

    def thread_ipc(self, thread: int) -> float:
        """Instructions ``thread`` committed per cycle."""
        return (self.committed_per_thread[thread] / self.cycle
                if self.cycle else 0.0)

    # ------------------------------------------------------------ warmup --
    def warm_code(self, program, thread: int = 0) -> None:
        """Pre-install ``thread``'s code footprint in L1I and L2.

        ``program`` is a :class:`~repro.isa.program.Program` or a
        :class:`~repro.isa.record.FunctionalRecord` of one: only its
        ``instructions`` are read (and only its ``segments`` by
        :meth:`warm_data`).

        The paper simulates 100 M-instruction samples taken 20 B
        instructions into execution, i.e. with warm instruction caches; our
        samples are short, so benchmarks warm the code explicitly to avoid
        charging every run a cold straight-line I-miss sequence.
        """
        line = self.params.memory.l1i.line_bytes
        base = thread * CODE_SPACE_BYTES
        code_bytes = len(program.instructions) * INST_BYTES
        for byte_addr in range(base, base + code_bytes, line):
            self.memory.l1i.warm_line(byte_addr)
            self.memory.l2.warm_line(byte_addr)

    def warm_data(self, program, thread: int = 0) -> None:
        """Pre-install ``thread``'s data segments in L2 (not L1D).

        Useful for modelling steady-state behaviour of kernels whose
        working set is L2-resident.
        """
        line = self.params.memory.l2.line_bytes
        base = thread * DATA_SPACE_BYTES
        for segment in program.segments.values():
            start = base + segment.base
            for byte_addr in range(start, start + segment.bytes, line):
                self.memory.l2.warm_line(byte_addr)

    # --------------------------------------------------------------- run --
    @property
    def done(self) -> bool:
        if self.num_threads == 1:
            return (self._halted[0]
                    or (not self.robs[0]._entries and self.frontend.drained))
        return all(map(self._thread_done, range(self.num_threads)))

    def run(self, max_cycles: Optional[int] = None, *,
            progress: Optional[Callable[[ProgressTick], None]] = None,
            progress_interval: float = 5.0) -> StatGroup:
        """Simulate until the program halts (or a budget is exhausted).

        ``max_cycles`` bounds simulated cycles.  The budget is cumulative
        across repeated ``run`` calls, so a run can be resumed by calling
        ``run`` again with a larger budget.

        ``progress``, if given, is called with a :class:`ProgressTick`
        roughly every ``progress_interval`` wall-clock seconds — the
        heartbeat behind the CLI's ``--progress N``.
        """
        limit = max_cycles if max_cycles is not None else 1 << 62
        self._cycle_limit = limit
        self._skip_enabled = (self._event_driven
                              and self.invariant_checker is None)
        try:
            if progress is None:
                while not self.done and self.cycle < limit:
                    self.step()
            else:
                start = last = time.monotonic()
                last_cycle = self.cycle
                next_check = self.cycle + _PROGRESS_STRIDE
                while not self.done and self.cycle < limit:
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
        c_commit = self._c_commit
        if c_commit is not None:
            c_commit(self, now)
        elif self.num_threads == 1:
            self._retire(0, self._commit_width, now)
        else:
            self._commit(now)
        self.lsq.cycle(now)
        c_issue = self._c_issue
        if c_issue is not None:
            c_issue(self, now)
        else:
            self._issue(now)
        # Pending events imply instructions in execution (completions,
        # cache fills); the segmented IQ's deadlock detector (paper 4.5)
        # must not fire while any are outstanding.
        iq = self.iq
        iq.in_flight = len(self.events)
        iq.last_commit_cycle = self._last_commit_cycle
        iq.cycle(now)
        rob = self.robs[0]
        c_dispatch = self._c_dispatch
        if c_dispatch is not None:
            c_dispatch(self, now)
        else:
            self._dispatch(now)
        if self.num_threads == 1:
            self.frontend.cycle(now)
            rob.stat_occupancy.sample(len(rob._entries))
        else:
            fetcher = self._icount()
            if fetcher is not None:
                fetcher.cycle(now)
            rob.stat_occupancy.sample(self._rob_occupancy())
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
                f"cycle {now}: rob={self._rob_occupancy()} "
                f"iq={self.iq.occupancy} head={self.rob.head()!r}")

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

        In a quiescent window no ROB changes length, so ICOUNT picks the
        same front end and dispatch visits the threads in the same order
        on every cycle of it: each thread's dispatch head is probed once.
        """
        stalls = self._skip_stalls = []
        ev = self.events.next_event_cycle()
        if 0 <= ev <= now:
            return now          # completions / fills land this cycle
        wake = ev if ev > now else NEVER

        robs = self.robs
        for rob in robs:
            entries = rob._entries
            if entries and entries[0].completed_cycle >= 0:
                return now      # commit retires at least one entry

        lsq = self.lsq
        if lsq.has_candidates():
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

        single = self.num_threads == 1
        fetcher = self.frontend if single else self._icount()
        if fetcher is not None:
            fe_wake = fetcher.next_event_cycle(now)
            if fe_wake <= now:
                return now
            if fe_wake < wake:
                wake = fe_wake

        # Dispatch: probe each thread's head once, remember why it is
        # blocked so the stall counters can be replayed for the whole
        # stretch.
        if now < lsq.violation_flush_until:
            if lsq.violation_flush_until < wake:
                wake = lsq.violation_flush_until
        else:
            for thread in (0,) if single else self._dispatch_order():
                fe = self.frontends[thread]
                inst = fe.peek_dispatchable(now)
                rob = robs[thread]
                if inst is None:
                    if fe._pipeline and fe._pipeline[0][0] < wake:
                        wake = fe._pipeline[0][0]
                elif len(rob._entries) >= rob.size:  # has_space, inlined
                    stalls.append("rob")
                elif inst.op_class in (OpClass.HALT, OpClass.NOP,
                                       OpClass.JUMP):
                    return now  # would dispatch (bypasses the IQ)
                elif inst.is_mem and len(lsq._order) >= lsq.size:
                    stalls.append("lsq")
                elif not single:
                    # A multi-thread attempt re-sequences the head and
                    # plans it afresh every cycle: step it.
                    return now
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
                        stalls.append("chain")
                    else:
                        stalls.append("iq")
                    bd_wake = iq.blocked_dispatch_wake(now)
                    if bd_wake < wake:
                        wake = bd_wake

        if self._cycle_limit < wake:
            wake = self._cycle_limit
        return wake

    def _apply_skip(self, now: int, count: int) -> None:
        """Replay the per-cycle accounting of ``count`` quiescent cycles
        [now, now+count) in O(1) (fused into one replay object)."""
        self._skip_replay.replay(now, count, self._skip_stalls)

    # ------------------------------------------------------------ commit --
    def _commit(self, now: int) -> None:
        """Multi-thread commit: threads share ``commit_width`` round-robin,
        starting one thread later each cycle (one thread retires through
        :meth:`_retire` directly)."""
        threads = self.num_threads
        budget = self._commit_width
        rotor = self._commit_rotor
        for offset in range(threads):
            if budget <= 0:
                break
            thread = (rotor + offset) % threads
            retired = self._retire(thread, budget, now)
            self._thread_committed[thread].inc(retired)
            budget -= retired
        self._commit_rotor = (rotor + 1) % threads

    def _retire(self, thread: int, budget: int, now: int) -> int:
        """Commit up to ``budget`` instructions from ``thread``'s ROB;
        returns how many.

        The compiled commit stage (``_c_commit``) is the
        operation-for-operation twin of a single-thread call.
        """
        rob_entries = self.robs[thread]._entries
        if not rob_entries:
            return 0
        lsq = self.lsq
        listeners = self.commit_listeners
        tracer = self.tracer
        committed = 0
        while committed < budget and rob_entries:
            inst = rob_entries[0]
            completed = inst.completed_cycle
            if completed < 0 or completed > now:
                break
            rob_entries.popleft()
            inst.committed_cycle = now
            if inst.is_mem:
                lsq.commit(inst, now)
            if inst.static.is_halt:
                self._halted[thread] = True
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
        return committed

    # ------------------------------------------------------------- issue --
    def _issue(self, now: int) -> None:
        """Issue this cycle's selection and start it executing.

        Completions are typed event records ``(self._complete, inst)``,
        not closures.  The compiled issue stage (``_c_issue``) is its
        operation-for-operation twin.
        """
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
                events.schedule_at(now + 1, lsq.address_ready, inst)
                continue
            done = now + inst.latency
            inst.set_value_ready(done)
            events.schedule_at(done, self._complete, inst)

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
            self.frontends[inst.thread].branch_resolved(inst, cycle)

    # ---------------------------------------------------------- dispatch --
    def _dispatch(self, now: int) -> None:
        """Dispatch up to ``dispatch_width`` decoded instructions; threads
        share the bandwidth, least-loaded ROB first.

        The compiled dispatch stage (``_c_dispatch``) is the
        operation-for-operation twin of a single-thread call.
        """
        if now < self.lsq.violation_flush_until:
            return      # squash penalty after a memory-order violation
        width = self._dispatch_width
        dispatched = 0
        order = (0,) if self.num_threads == 1 else self._dispatch_order()
        for thread in order:
            if dispatched >= width:
                break
            dispatched += self._dispatch_thread(thread, width - dispatched,
                                                now)
        if dispatched:
            self.stat_dispatched.inc(dispatched)

    def _dispatch_thread(self, thread: int, budget: int, now: int) -> int:
        """Dispatch up to ``budget`` of ``thread``'s decoded instructions;
        returns how many went.

        One flat loop (rename and per-instruction admission checks
        inlined): this runs for every instruction the machine executes,
        so each helper call and repeated attribute chain costs real
        simulator throughput.
        """
        frontend = self.frontends[thread]
        pipeline = frontend._pipeline
        if not pipeline or pipeline[0][0] > now:
            return 0
        lsq = self.lsq
        rob = self.robs[thread]
        rob_entries = rob._entries
        rob_size = rob.size
        # Admission is inlined only for the stock ROB; a subclass (e.g.
        # the negative-testing BrokenROB) keeps its dispatch override.
        plain_rob = type(rob) is ReorderBuffer
        # Threads share the IQ and LSQ, which order by seq: each
        # instruction is re-sequenced into one global age order as it
        # tries to dispatch.
        resequence = self.num_threads > 1
        iq = self.iq
        tracer = self.tracer
        clustered = self._clustered
        last_writer = self._last_writers[thread]
        dispatched = 0
        while dispatched < budget and pipeline and pipeline[0][0] <= now:
            inst = pipeline[0][1]
            if len(rob_entries) >= rob_size:
                rob.stat_full_stalls.inc()
                self.stat_dispatch_stall_rob.inc()
                break
            if resequence:
                inst.seq = self._global_seq
                self._global_seq += 1
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
                    frontend.branch_resolved(inst, now)
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
            # Rename the IQ-relevant sources.
            srcs = inst.srcs
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
                data_ready, data_producer = self._store_data_operand(
                    inst, last_writer)
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
        return dispatched

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

    @staticmethod
    def _store_data_operand(inst: DynInst, last_writer: Dict[int, DynInst]):
        """(ready cycle, producer) of a store's data register."""
        if not inst.is_store:
            return None, None
        reg = inst.srcs[1]
        producer = last_writer.get(reg) if reg != 0 else None
        if producer is None:
            return 0, None
        return producer.value_ready_cycle, producer
