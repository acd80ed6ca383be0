"""Front-end model: fetch, branch prediction, and the decode pipeline.

The front end is trace-driven: it pulls the *correct-path* dynamic
instruction stream from the functional simulator.  Branch mispredictions
therefore cannot inject wrong-path work; instead fetch stalls at a
mispredicted branch until the branch resolves, which charges the full
misprediction penalty (resolution delay plus front-end refill) without
modelling wrong-path cache pollution.  DESIGN.md records this substitution.

Fetched instructions traverse a ``fetch_to_decode + decode_to_dispatch``-
cycle pipeline (Table 1: 10 + 5 cycles; complex IQs add one more) before the
dispatch stage may consume them.

On one-thread, untraced compiled runs :meth:`FrontEnd.cycle` hands each
cycle to ``_ckernels.FetchStage``, which also predicts inline: it runs
:meth:`FrontEnd._predict`'s body on the BTB's and the hybrid predictor's
flat tables (:mod:`repro.frontend.btb`,
:mod:`repro.frontend.branch_predictor`) with the same counters.
:meth:`FrontEnd._predict` and the tables' methods are its Python twin.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, Optional

from repro.common.events import EventQueue
from repro.common.params import ProcessorParams
from repro.common.stats import StatGroup
from repro.core.segmented.links import NEVER
from repro.frontend.branch_predictor import HybridBranchPredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.memory.cache import Cache
from repro.memory.request import MemRequest
from repro.obs.events import TraceEvent

#: Instruction size in bytes (for I-cache line geometry: 16 per 64-byte line).
INST_BYTES = 4


class FrontEnd:
    """Fetches from the dynamic stream and feeds the dispatch stage."""

    def __init__(self, params: ProcessorParams, stream: Iterator[DynInst],
                 icache: Cache, events: EventQueue, stats: StatGroup) -> None:
        self.params = params
        self._stream = stream
        self._icache = icache
        self._events = events
        self._peeked: Optional[DynInst] = None
        self._stream_done = False

        self.bpred = HybridBranchPredictor(params.branch, stats)
        self.btb = BranchTargetBuffer(params.branch, stats)

        #: (dispatch_ready_cycle, inst) in fetch order.
        self._pipeline: Deque = deque()
        self._buffer_cap = (params.dispatch_pipeline_depth + 4) * params.fetch_width

        # Stall state.
        self._waiting_branch: Optional[DynInst] = None
        self._resume_cycle = 0
        self._icache_stalled = False
        #: Byte offset of this context's code in the shared I-cache space
        #: (nonzero under SMT so threads' code lines do not alias).
        self.code_base = 0
        #: Observability sink (see :mod:`repro.obs`); installed by the
        #: processor, ``None`` disables tracing.
        self.tracer = None
        #: The compiled fetch stage's ``run`` (``_ckernels.FetchStage``),
        #: bound by the processor on one-thread, untraced runs; ``None``
        #: runs the Python body of :meth:`cycle`.
        self._c_fetch = None

        self.stat_fetched = stats.counter("fetch.instructions")
        self.stat_fetch_cycles = stats.counter(
            "fetch.active_cycles", "cycles with at least one fetch")
        self.stat_branch_stall_cycles = stats.counter(
            "fetch.branch_stall_cycles", "cycles stalled on a mispredict")
        self.stat_icache_stall_cycles = stats.counter(
            "fetch.icache_stall_cycles", "cycles stalled on an I-cache miss")
        self.stat_buffer_full_cycles = stats.counter(
            "fetch.buffer_full_cycles", "cycles the decode buffer was full")

    # ------------------------------------------------------------ stream --
    def _peek(self) -> Optional[DynInst]:
        if self._peeked is None and not self._stream_done:
            try:
                self._peeked = next(self._stream)
            except StopIteration:
                self._stream_done = True
        return self._peeked

    def _take(self) -> DynInst:
        inst = self._peeked
        self._peeked = None
        return inst

    @property
    def stream_done(self) -> bool:
        self._peek()
        return self._stream_done and self._peeked is None

    @property
    def drained(self) -> bool:
        return self.stream_done and not self._pipeline

    # ------------------------------------------------------------- fetch --
    def cycle(self, now: int) -> None:
        """Fetch up to ``fetch_width`` instructions this cycle.

        With the compiled fetch stage bound, this hands the cycle to it;
        the body below is its operation-for-operation Python twin.
        """
        c_fetch = self._c_fetch
        if c_fetch is not None:
            c_fetch(self, now)
            return
        if self._icache_stalled:
            self.stat_icache_stall_cycles.inc()
            return
        if self._waiting_branch is not None or now < self._resume_cycle:
            self.stat_branch_stall_cycles.inc()
            return
        if len(self._pipeline) >= self._buffer_cap:
            self.stat_buffer_full_cycles.inc()
            return

        # Inlined _peek/_take: the peeked instruction lives in a local for
        # the duration of the loop and is written back on every exit path.
        fetched = 0
        branches = 0
        tracer = self.tracer
        params = self.params
        fetch_width = params.fetch_width
        max_branches = params.max_branches_per_fetch
        ready_at = now + params.dispatch_pipeline_depth
        stream = self._stream
        append = self._pipeline.append
        line_available = self._line_available
        icache = self._icache
        line_shift = icache.params.line_bytes.bit_length() - 1
        code_base = self.code_base
        # Same-line coalescing: once a line probed as a hit this cycle it
        # stays resident and MRU for the rest of the loop (fetch is the
        # only I-cache client mid-loop and a repeat touch is idempotent on
        # LRU order), so further touches of it are pure counter traffic.
        current_line = -1
        coalesced = 0
        inst = self._peeked
        while fetched < fetch_width:
            if inst is None:
                if self._stream_done:
                    break
                try:
                    inst = next(stream)
                except StopIteration:
                    self._stream_done = True
                    break
            line = (code_base + inst.pc * INST_BYTES) >> line_shift
            if line == current_line:
                coalesced += 1
            elif line_available(inst.pc):
                current_line = line
            else:
                break
            if inst.is_control:
                if branches >= max_branches:
                    break
                branches += 1
                self._predict(inst)    # no-op for non-control instructions
            inst.fetched_cycle = now
            if tracer is not None:
                tracer.emit(TraceEvent(cycle=now, kind="fetch",
                                       seq=inst.seq, pc=inst.pc,
                                       op=inst.static.opcode.value))
            append((ready_at, inst))
            fetched += 1
            if inst.mispredicted:
                self._waiting_branch = inst
                inst = None
                break
            if inst.static.is_halt:
                inst = None
                break
            inst = None
        self._peeked = inst
        if coalesced:
            icache.stat_accesses.inc(coalesced)
            icache.stat_hits.inc(coalesced)
        if fetched:
            self.stat_fetched.inc(fetched)
            self.stat_fetch_cycles.inc()

    # ------------------------------------------------------ event-driven --
    def next_event_cycle(self, now: int) -> int:
        """Earliest cycle fetch could act; NEVER when only an event (cache
        fill, branch resolution, a dispatch draining the buffer) can
        unblock it.  Mirrors the stall-check order of :meth:`cycle`."""
        if self._icache_stalled:
            return NEVER        # the fill-completion event wakes us
        if self._waiting_branch is not None:
            return NEVER        # resolution arrives via an execute event
        if now < self._resume_cycle:
            return self._resume_cycle
        if len(self._pipeline) >= self._buffer_cap:
            return NEVER        # drains only through dispatch
        if self._peek() is None:
            return NEVER        # stream done
        return now              # would fetch (or probe the I-cache)

    def skip_cycles(self, now: int, count: int) -> None:
        """Replay the stall counters :meth:`cycle` would have bumped over
        ``count`` quiescent cycles (same branch order as cycle())."""
        if self._icache_stalled:
            self.stat_icache_stall_cycles.inc(count)
        elif self._waiting_branch is not None or now < self._resume_cycle:
            self.stat_branch_stall_cycles.inc(count)
        elif len(self._pipeline) >= self._buffer_cap:
            self.stat_buffer_full_cycles.inc(count)

    def _line_available(self, pc: int) -> bool:
        """Check the I-cache for the line holding ``pc``; start a fill and
        stall fetch if it misses."""
        addr = self.code_base + pc * INST_BYTES
        if self._icache.touch(addr):
            return True
        self._icache_stalled = True
        request = MemRequest(addr=addr, on_complete=self._icache_fill_done)
        if not self._icache.access(request):
            # No MSHR free: retry next cycle via a scheduled re-check.
            self._icache_stalled = False
            return False
        return False

    def _icache_fill_done(self, request: MemRequest) -> None:
        self._icache_stalled = False

    def _predict(self, inst: DynInst) -> None:
        """Run branch prediction and BTB lookups; mark mispredictions."""
        if inst.static.info.op_class is OpClass.JUMP:
            # Unconditional: direction is known; the target must be in the
            # BTB to redirect fetch this cycle.
            inst.predicted_taken = True
            if not self.btb.lookup(inst.pc):
                inst.mispredicted = True
            self.btb.insert(inst.pc)
            return
        if not inst.is_branch:
            return
        correct = self.bpred.update(inst.pc, inst.taken)
        inst.predicted_taken = inst.taken if correct else not inst.taken
        inst.mispredicted = not correct
        if inst.taken:
            if correct and not self.btb.lookup(inst.pc):
                inst.mispredicted = True
            self.btb.insert(inst.pc)

    # ---------------------------------------------------------- dispatch --
    def peek_dispatchable(self, now: int) -> Optional[DynInst]:
        """The oldest instruction that has cleared the decode pipeline."""
        if self._pipeline and self._pipeline[0][0] <= now:
            return self._pipeline[0][1]
        return None

    def pop_dispatchable(self, now: int) -> Optional[DynInst]:
        inst = self.peek_dispatchable(now)
        if inst is not None:
            self._pipeline.popleft()
        return inst

    # ------------------------------------------------------- resolutions --
    def branch_resolved(self, inst: DynInst, cycle: int) -> None:
        """The core resolved a mispredicted branch; fetch resumes next cycle."""
        if inst is self._waiting_branch:
            self._waiting_branch = None
            self._resume_cycle = cycle + 1
