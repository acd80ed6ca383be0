"""Dependence chains and the chain-wire pool (paper sections 3.2-3.4).

A *chain* is a subtree of the data dependence graph rooted at a head
instruction (typically a load).  Members hold their delay values as a fixed
latency ``dh`` behind the head; the head broadcasts status changes on its
chain wire:

* while the head is queued, a member's delay is ``2 * head_segment + dh``
  (two cycles per segment the head must still descend);
* once the head issues, the chain enters *self-timed* mode and member delays
  count down one per cycle;
* a variable-latency head (a load that misses) *suspends* self-timing when
  the miss is detected and *resumes* it when the data returns.

Modelling note: the hardware pipelines chain-wire assertions one segment per
cycle; this model applies them with the algebra above (i.e. instantaneous
wires).  The paper itself observes that dispatch-stage delay values "do not
compensate for the latencies of pipelining the chain promotion wires", so
the instantaneous-wire model matches the *intended* delay-value semantics.
DESIGN.md records this simplification.

:class:`Chain` and :class:`ChainManager` are the reference for the chain
and wire-pool policy, and the state of record: a chain's issue and
suspension history lives in its slots and the pool in the manager's.
The segmented IQ's kernel engine makes every call (allocation at
dispatch, the head's issue, suspend and resume on a miss, the free at
writeback).  The pure-Python engine calls the methods below; the
compiled engine runs the same bodies inline on these objects' own
``__slots__``, and with a tracer attached calls :meth:`ChainManager.trace`
where the methods below emit, so both backends leave identical chains,
pools and traces.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import SimulationError
from repro.common.stats import StatGroup
from repro.isa.instruction import DynInst
from repro.obs.events import TraceEvent


class Chain:
    """One dependence chain: the head's issue/suspension history plus a
    handle on the chain's columns in the kernel engine."""

    __slots__ = ("chain_id", "head", "head_latency", "issued_cycle",
                 "suspended_since", "suspended_accum", "freed", "cluster",
                 "engine", "cslot")

    #: The member-delay algebra lives in the engine's chain columns
    #: ``(mode, base, head_segment)``, the only copy of that state.  The
    #: engine moves a queued head's segment itself as the head promotes;
    #: the four event methods below publish every other change through
    #: ``engine.chain_set`` and wake the members with ``engine.notify``:
    #:
    #: * ``MODE_QUEUED``    — delay = base + dh       (base = 2*head_segment)
    #: * ``MODE_TICKING``   — delay = max(0, base + dh - now)
    #:                        (base = issued_cycle + suspended_accum)
    #: * ``MODE_SUSPENDED`` — delay = max(0, dh - base)
    #:                        (base = frozen self-timed elapsed cycles)
    MODE_QUEUED = 0
    MODE_TICKING = 1
    MODE_SUSPENDED = 2

    def __init__(self, chain_id: int, head: DynInst, engine,
                 head_segment: int, head_latency: int = 0) -> None:
        self.chain_id = chain_id
        self.head = head
        #: Predicted latency of the head's value from its issue; members'
        #: dh values are at least this.  Used for the resume catch-up.
        self.head_latency = head_latency
        self.issued_cycle: Optional[int] = None
        self.suspended_since: Optional[int] = None
        self.suspended_accum = 0
        self.freed = False
        # Execution cluster the chain is bound to (section-7 clustering:
        # "chains seem to form a natural unit for assignment to
        # function-unit clusters").  Inherited from the head.
        self.cluster = head.cluster
        self.engine = engine
        self.cslot = engine.alloc_chain(Chain.MODE_QUEUED, 2 * head_segment,
                                        head_segment)

    # ------------------------------------------------------------ state --
    @property
    def head_segment(self) -> int:
        return self.engine.hseg_of(self.cslot)

    @property
    def mode(self) -> int:
        return self.engine.mode_of(self.cslot)

    @property
    def base(self) -> int:
        return self.engine.base_of(self.cslot)

    @property
    def issued(self) -> bool:
        return self.issued_cycle is not None

    @property
    def suspended(self) -> bool:
        return self.suspended_since is not None

    def self_elapsed(self, now: int) -> int:
        """Cycles of self-timed countdown accumulated since head issue."""
        if self.issued_cycle is None:
            return 0
        elapsed = now - self.issued_cycle - self.suspended_accum
        if self.suspended_since is not None:
            elapsed -= now - self.suspended_since
        return max(0, elapsed)

    def member_delay(self, dh: int, now: int) -> int:
        """Current delay value of a member ``dh`` behind the head."""
        mode = self.mode
        base = self.base
        if mode == 0:                       # queued
            return base + dh
        if mode == 1:                       # self-timed countdown
            delay = base + dh - now
        else:                               # suspended (frozen)
            delay = dh - base
        return delay if delay > 0 else 0

    # ----------------------------------------------------------- events --
    def on_head_promoted(self, new_segment: int) -> None:
        """A queued head moved outside the engine's own promotion sweep
        (deadlock recovery)."""
        if self.issued_cycle is None:
            self._publish(Chain.MODE_QUEUED, 2 * new_segment, new_segment)

    def on_head_issued(self, now: int) -> None:
        if self.issued_cycle is None:
            self.issued_cycle = now
            self._publish(Chain.MODE_TICKING, now + self.suspended_accum)

    def suspend(self, now: int) -> None:
        """Head will not complete on schedule (cache miss detected)."""
        if self.issued_cycle is None or self.suspended_since is not None:
            return
        self.suspended_since = now
        self._publish(Chain.MODE_SUSPENDED,
                      now - self.issued_cycle - self.suspended_accum)

    def resume(self, now: int) -> None:
        """Head completed; members resume counting down.

        The head's completion certifies that its own latency has fully
        elapsed, so members are credited up to ``head_latency`` cycles of
        self-timing: a direct consumer (dh == head_latency) lands at delay
        zero the moment the data returns, while deeper members keep the
        remaining dependence-path latency.  This models the intended
        semantics of the paper's final resume signal — without it, the
        delay frozen at suspend time would lag every consumer's issue by
        the unelapsed portion of the predicted load latency.
        """
        if self.suspended_since is None:
            return
        self.suspended_accum += now - self.suspended_since
        self.suspended_since = None
        shortfall = self.head_latency - self.self_elapsed(now)
        if shortfall > 0:
            self.suspended_accum -= shortfall
        self._publish(Chain.MODE_TICKING,
                      self.issued_cycle + self.suspended_accum)

    def _publish(self, mode: int, base: int, head_segment: int = 0) -> None:
        """Write the new delay constants and wake the members (an issued
        head always sits at segment 0)."""
        self.engine.chain_set(self.cslot, mode, base, head_segment)
        self.engine.notify(self.cslot)

    def __repr__(self) -> str:
        state = ("suspended" if self.suspended
                 else "self-timed" if self.issued else "queued")
        return (f"Chain({self.chain_id} head=#{self.head.seq} "
                f"seg={self.head_segment} {state})")


class ChainManager:
    """Allocates chain wires; tracks usage statistics for Table 2."""

    __slots__ = ("max_chains", "_active", "_next_id", "_free_ids",
                 "stat_allocated", "stat_alloc_failures", "stat_in_use",
                 "peak_in_use", "tracer")

    def __init__(self, max_chains: Optional[int], stats: StatGroup) -> None:
        self.max_chains = max_chains
        self._active: dict = {}       # chain_id -> Chain
        self._next_id = 0
        self._free_ids: List[int] = []
        self.stat_allocated = stats.counter("chains.allocated")
        self.stat_alloc_failures = stats.counter(
            "chains.alloc_failures", "chain-head dispatches stalled: no wire")
        self.stat_in_use = stats.distribution(
            "chains.in_use", "active chains, sampled each cycle")
        self.peak_in_use = 0
        #: Observability sink (installed via SegmentedIQ.attach_tracer).
        self.tracer = None

    @property
    def active_count(self) -> int:
        return len(self._active)

    def has_free(self) -> bool:
        return self.max_chains is None or len(self._active) < self.max_chains

    def allocate(self, head: DynInst, engine, head_segment: int,
                 head_latency: int = 0, now: int = 0) -> Optional[Chain]:
        """Create a chain rooted at ``head`` (queued in ``head_segment``)
        with its columns in ``engine``; None if no wire is free."""
        if not self.has_free():
            self.stat_alloc_failures.inc()
            return None
        if self._free_ids:
            chain_id = self._free_ids.pop()
        else:
            chain_id = self._next_id
            self._next_id += 1
        chain = Chain(chain_id, head, engine, head_segment, head_latency)
        self._active[chain_id] = chain
        self.stat_allocated.inc()
        if len(self._active) > self.peak_in_use:
            self.peak_in_use = len(self._active)
        if self.tracer is not None:
            self.trace(now, "chain_create", head, chain_id, head_segment)
        return chain

    def free(self, chain: Chain, now: int = 0) -> None:
        """Return the chain's wire to the pool (at head writeback).

        The Chain object stays alive for members still counting down; only
        the wire (the ID) is recycled.
        """
        if chain.freed:
            return
        chain.freed = True
        removed = self._active.pop(chain.chain_id, None)
        if removed is None:
            raise SimulationError(f"double free of chain {chain.chain_id}")
        self._free_ids.append(chain.chain_id)
        if self.tracer is not None:
            self.trace(now, "chain_wire", chain.head, chain.chain_id,
                       info="free")

    def trace(self, now: int, kind: str, head: DynInst, chain_id: int,
              seg: int = -1, info: str = "") -> None:
        """Emit one chain event for the chain ``chain_id`` headed by
        ``head``: ``chain_create`` (with the head's opcode and segment)
        or ``chain_wire`` (``info`` says suspend, resume or free).  The
        one emit hook of both engines, called only with a tracer
        attached."""
        self.tracer.emit(TraceEvent(
            cycle=now, kind=kind, seq=head.seq, pc=head.pc,
            op=head.static.opcode.value if kind == "chain_create" else "",
            seg=seg, chain=chain_id, info=info))

    def sample(self) -> None:
        """Record current usage (called once per cycle)."""
        self.stat_in_use.sample(len(self._active))

    def sample_n(self, cycles: int) -> None:
        """Record current usage for ``cycles`` consecutive quiescent
        cycles at once (the skip-ahead path's batched equivalent of
        calling :meth:`sample` each cycle)."""
        self.stat_in_use.sample_n(len(self._active), cycles)

    def check(self, now: int, num_segments: Optional[int] = None) -> None:
        """Invariants: the wire pool is bounded and every active chain is
        internally consistent (head position in range, suspension
        accounting non-negative)."""
        from repro.common.errors import InvariantViolation
        if self.max_chains is not None and len(self._active) > self.max_chains:
            raise InvariantViolation(
                f"{len(self._active)} chains active > {self.max_chains} "
                f"wires at cycle {now}")
        for chain in self._active.values():
            if chain.freed:
                raise InvariantViolation(
                    f"freed chain {chain.chain_id} still in the active pool")
            if chain.head_segment < 0 or (
                    num_segments is not None
                    and chain.head_segment >= num_segments):
                raise InvariantViolation(
                    f"chain {chain.chain_id} head segment "
                    f"{chain.head_segment} out of range at cycle {now}")
            if chain.issued and chain.head_segment != 0:
                raise InvariantViolation(
                    f"issued chain {chain.chain_id} reports head segment "
                    f"{chain.head_segment} (must be 0) at cycle {now}")
            if chain.issued_cycle is None and chain.suspended:
                raise InvariantViolation(
                    f"chain {chain.chain_id} suspended before its head "
                    f"issued at cycle {now}")
