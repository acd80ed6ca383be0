"""Pipeline-tier kernel engine: batched per-cycle pipeline state.

PR 7 moved the segmented IQ's active-cycle state into a struct-of-arrays
kernel engine (:mod:`repro.core.segmented.kernels`); this module extends
the same pattern *upward* into the pipeline around the IQ.  Per-cycle
hot-path state that used to live in Python containers — today the
function-unit pool's next-free heaps and their issue/stall counters —
lives in slot-indexed parallel columns with two interchangeable
implementations:

* :class:`PyPipelineEngine`, the pure-Python reference below, and
* ``repro.core.segmented._ckernels.Pipeline``, an operation-for-operation
  C twin built by ``python -m repro.core.segmented.build``.

Backend selection reuses the segmented tier's switch and its one
lookup of the compiled module
(:func:`repro.core.segmented.kernels.compiled_module`):
``REPRO_KERNELS`` (read at interpreter start) or
:func:`~repro.core.segmented.kernels.set_backend` pick the backend for
*both* tiers, and the pure-Python fallback is always available.  The
two backends are bit-identical — same cycles, same stats, same traces —
pinned by ``tests/core/test_kernels.py``.

Five stages of ``Processor`` have compiled twins with no column state
of their own, the ``_ckernels`` types ``DispatchStage`` (the whole
dispatch stage, pinned untraced by
``tests/pipeline/test_dispatch_stage.py``), ``IssueStage`` (issue with
operand wakeup and completion, pinned by
``tests/pipeline/test_issue_stage.py``), ``FetchStage`` and
``CommitStage`` (pinned untraced by
``tests/pipeline/test_fetch_commit_stage.py``) and ``MemStage`` (the
LSQ's bookkeeping and load issue, the L1D's core-side load access and
each load's completion, pinned by ``tests/pipeline/test_mem_stage.py``
and ``tests/pipeline/test_memory_parity.py``), with a ``CacheStage``
per cache level and main memory (their accesses and the refill chain
below the L1D, pinned by ``tests/pipeline/test_memory_parity.py``).
``Processor.__init__`` takes them from the same lookup and binds them
once.  The memory and cache stages also bind on traced, multi-thread,
clustered and invariant-checked runs, whose other stages keep their
Python twins.

Column layout (one heap per (FU class, cluster) pair, flattened):

``heaps[ci * clusters + cluster]``
    Min-heap of next-free cycles, one element per unit — an exact
    transliteration of the ``heapq`` discipline ``FUPool`` used, so unit
    reuse order (and therefore every stat) is unchanged.

Stat counters are bound once at construction; the C twin recognises the
compiled ``Counter`` type from its own module and increments the struct
field directly, falling back to the Python ``inc`` protocol otherwise
(the stat tier's backend is fixed at process start while the engine
backend may be forced per-run, so mixed pairings are legal).  The one
pairing a stage refuses is the compiled issue stage over the Python
event queue (``REPRO_KERNELS=py`` at process start, compiled engines
forced later): its completions are records only the compiled
``EventQueue`` fires, so ``Processor`` then keeps the Python issue
stage, and for the same reason the Python memory stage.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.core.segmented.kernels import compiled_module

#: Matches repro.core.segmented.links.NEVER (import cycle avoidance).
NEVER = 1 << 60


class PyPipelineEngine:
    """Pure-Python reference implementation of the pipeline kernel tier."""

    kind = "py"

    __slots__ = ("_clusters", "_heaps", "_issued", "_structural",
                 "_mem_port", "issue_keys")

    def __init__(self, n_classes: int, clusters: int, counts: List[int],
                 mem_port_index: int, issued_counters, structural_counter,
                 issue_keys=None) -> None:
        self._clusters = clusters
        self._heaps = []
        for ci in range(n_classes):
            per_cluster = counts[ci] // clusters
            for _cluster in range(clusters):
                self._heaps.append([0] * per_cluster)
        self._issued = list(issued_counters)
        self._structural = structural_counter
        self._mem_port = mem_port_index
        #: opcode -> (class index, occupancy) map shared with FUPool;
        #: the Python engine never reads it (the IQ-side issue select
        #: calls back through FUPool.try_issue), but the compiled twin
        #: uses it to claim units without re-entering Python.
        self.issue_keys = issue_keys if issue_keys is not None else {}

    # -------------------------------------------------------------- ops --
    def fu_accept(self, ci: int, cluster: int, occupancy: int,
                  now: int) -> bool:
        """Claim a unit of class ``ci`` in ``cluster`` for ``occupancy``
        cycles (transliterates ``FUPool.accept``, structural stall
        included)."""
        units = self._heaps[ci * self._clusters + cluster]
        if not units or units[0] > now:
            self._structural.inc()
            return False
        heapq.heapreplace(units, now + occupancy)
        self._issued[ci].inc()
        return True

    def fu_can_accept(self, ci: int, cluster: int, now: int) -> bool:
        units = self._heaps[ci * self._clusters + cluster]
        return bool(units) and units[0] <= now

    def fu_cache_port(self, now: int) -> bool:
        """Claim a data-cache port in any cluster (transliterates
        ``FUPool.try_cache_port``: each busy cluster probed on the way
        counts one structural stall, exactly as ``accept`` did)."""
        base = self._mem_port * self._clusters
        heaps = self._heaps
        structural = self._structural
        for cluster in range(self._clusters):
            units = heaps[base + cluster]
            if not units or units[0] > now:
                structural.inc()
                continue
            heapq.heapreplace(units, now + 1)
            self._issued[self._mem_port].inc()
            return True
        return False

    def fu_next_event(self, now: int) -> int:
        """Earliest future cycle any busy unit frees up (NEVER if all
        free)."""
        earliest = NEVER
        for units in self._heaps:
            if units and now < units[0] < earliest:
                earliest = units[0]
        return earliest


def make_engine(n_classes: int, clusters: int, counts: List[int],
                mem_port_index: int, issued_counters,
                structural_counter, issue_keys=None):
    """Build a pipeline engine on the active kernel backend."""
    if issue_keys is None:
        issue_keys = {}
    module = compiled_module()
    if module is not None:
        return module.Pipeline(n_classes, clusters, counts, mem_port_index,
                               list(issued_counters), structural_counter,
                               issue_keys)
    return PyPipelineEngine(n_classes, clusters, counts, mem_port_index,
                            issued_counters, structural_counter, issue_keys)
