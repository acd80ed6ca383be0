"""Function-unit pool.

Table 1 gives 8 units of each class.  All units are fully pipelined (accept
one operation per cycle) except integer divide, FP divide, and FP sqrt,
which occupy their unit for the full latency.

The per-unit next-free heaps live in the pipeline kernel engine
(:mod:`repro.pipeline.kernels`), which has a compiled twin behind the
``REPRO_KERNELS`` switch; this class keeps the instruction-facing policy
(class selection, occupancy) and delegates the heap discipline.
"""

from __future__ import annotations

from typing import Dict

from repro.common.stats import StatGroup
from repro.isa.instruction import DynInst
from repro.isa.opcodes import FUClass, op_info
from repro.pipeline import kernels as _pkernels

#: All schedulable FU classes, in FUClass declaration order (the engine's
#: class-index space).
_CLASSES = [fu_class for fu_class in FUClass if fu_class is not FUClass.NONE]
_CLASS_INDEX = {fu_class: index for index, fu_class in enumerate(_CLASSES)}


class FUPool:
    """Tracks when each function unit can next accept an operation.

    With ``clusters > 1`` (the paper's section-7 horizontal clustering),
    each class's units are split evenly across clusters and an instruction
    may only use its own cluster's units.
    """

    def __init__(self, fu_counts: Dict[str, int], stats: StatGroup,
                 clusters: int = 1) -> None:
        self.clusters = max(1, clusters)
        counts = [fu_counts.get(fu_class.value, 0) for fu_class in _CLASSES]
        issued = [stats.counter(f"fu.{fu_class.value}.ops")
                  for fu_class in _CLASSES]
        self._stat_structural = stats.counter(
            "fu.structural_stalls", "issue attempts blocked by busy units")
        #: opcode -> (engine class index, occupancy), resolved lazily
        #: (-1 occupancy marks the class-NONE "consumes nothing" case).
        #: Shared with the engine so a fused issue select can claim units
        #: without re-entering Python.
        self._issue_keys: Dict = {}
        self._engine = _pkernels.make_engine(
            len(_CLASSES), self.clusters, counts,
            _CLASS_INDEX[FUClass.MEM_PORT], issued, self._stat_structural,
            self._issue_keys)

    @staticmethod
    def issue_class(inst: DynInst) -> FUClass:
        """FU class consumed at IQ issue time.

        Memory operations issue their *effective-address calculation*, an
        ordinary integer add (paper section 5); the cache port (MEM_PORT) is
        consumed later by the LSQ when the access goes to the data cache.
        """
        if inst.is_mem:
            return FUClass.INT_ALU
        return inst.static.info.fu_class

    def can_accept(self, fu_class: FUClass, now: int,
                   cluster: int = 0) -> bool:
        return self._engine.fu_can_accept(
            _CLASS_INDEX[fu_class], cluster, now)

    def accept(self, fu_class: FUClass, now: int, occupancy: int = 1,
               cluster: int = 0) -> bool:
        """Claim a ``fu_class`` unit in ``cluster`` for ``occupancy`` cycles."""
        return self._engine.fu_accept(
            _CLASS_INDEX[fu_class], cluster, occupancy, now)

    def next_event_cycle(self, now: int) -> int:
        """Earliest future cycle a currently-busy unit frees up (NEVER if
        every unit is already free).

        Informational: the skip-ahead probe treats any cycle with ready
        instructions as active (FU-blocked retries count structural
        stalls per cycle), so unit availability never gates a skip on its
        own — but every timed component answers the same question.
        """
        return self._engine.fu_next_event(now)

    def _issue_key(self, inst: DynInst):
        """(engine class index, occupancy) an issue of this opcode claims."""
        info = inst.static.info
        fu_class = info.fu_class
        if fu_class is FUClass.NONE:
            key = (0, -1)
        elif inst.is_mem:
            key = (_CLASS_INDEX[FUClass.INT_ALU], 1)   # pipelined EA add
        else:
            key = (_CLASS_INDEX[fu_class],
                   1 if info.pipelined else info.latency)
        self._issue_keys[inst.static.opcode] = key
        return key

    def try_issue(self, inst: DynInst, now: int) -> bool:
        """Claim the unit an IQ issue of ``inst`` needs.

        Non-pipelined operations occupy their unit for the full latency;
        pipelined ones free it next cycle.  HALT/NOP consume nothing.
        """
        key = self._issue_keys.get(inst.static.opcode)
        if key is None:
            key = self._issue_key(inst)
        ci, occupancy = key
        if occupancy < 0:
            return True
        return self._engine.fu_accept(ci, inst.cluster, occupancy, now)

    def try_cache_port(self, now: int) -> bool:
        """Claim a data-cache read/write port for one cycle (LSQ side).

        The cache is shared: any cluster's port will do."""
        return self._engine.fu_cache_port(now)


class FUAcquire:
    """Persistent issue-loop FU acquisition callable.

    The processor updates :attr:`now` once per cycle and hands the same
    object to ``select_issue`` every cycle.  IQ models that run their
    issue select inside a kernel engine probe :attr:`fu_engine` (via
    ``getattr``) so the compiled backend can claim units without
    re-entering Python; everything else — other IQ models, tests passing
    plain lambdas — just calls it.
    """

    __slots__ = ("_pool", "now", "fu_engine")

    def __init__(self, pool: FUPool) -> None:
        self._pool = pool
        self.now = 0
        self.fu_engine = pool._engine

    def __call__(self, inst: DynInst) -> bool:
        return self._pool.try_issue(inst, self.now)
