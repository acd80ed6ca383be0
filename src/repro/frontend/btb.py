"""Branch target buffer: 4K entries, 4-way set associative (paper Table 1).

The timing model is trace-driven off the correct path, so the BTB stores no
actual targets — it tracks *whether* the fetch stage would have known the
target of a taken branch.  A predicted-taken branch that misses in the BTB
cannot redirect fetch and therefore costs a full misprediction penalty.

The tag store is one flat ``array('q')`` of ``num_sets * assoc`` branch
PCs, ``_pcs``: set ``s`` is slots ``s * assoc`` onwards, most recently
used first, and -1 marks an empty slot (a set's empty slots trail its
PCs).  On one-thread, untraced compiled runs the fetch stage
(``_ckernels.FetchStage``) looks up and inserts on this array itself,
through a buffer export, with the same counters; :meth:`lookup` and
:meth:`insert` are its Python twin.
"""

from __future__ import annotations

from array import array

from repro.common.params import BranchPredictorParams
from repro.common.stats import StatGroup


class BranchTargetBuffer:
    """Set-associative tag store with LRU replacement."""

    def __init__(self, params: BranchPredictorParams,
                 stats: StatGroup) -> None:
        self.num_sets = params.btb_entries // params.btb_assoc
        self.assoc = params.btb_assoc
        self._pcs = array("q", [-1]) * (self.num_sets * self.assoc)
        self.stat_hits = stats.counter("btb.hits")
        self.stat_misses = stats.counter("btb.misses")

    def lookup(self, pc: int) -> bool:
        """True if the BTB holds a target for the branch at ``pc``."""
        pcs = self._pcs
        base = pc % self.num_sets * self.assoc
        for slot in range(base, base + self.assoc):
            if pcs[slot] == pc:
                while slot > base:
                    pcs[slot] = pcs[slot - 1]
                    slot -= 1
                pcs[base] = pc
                self.stat_hits.inc()
                return True
        self.stat_misses.inc()
        return False

    def insert(self, pc: int) -> None:
        """Record that the target of the branch at ``pc`` is now known."""
        pcs = self._pcs
        base = pc % self.num_sets * self.assoc
        slot = base + self.assoc - 1        # absent: the LRU slot goes
        for way in range(base, slot):
            if pcs[way] == pc:
                slot = way
                break
        while slot > base:
            pcs[slot] = pcs[slot - 1]
            slot -= 1
        pcs[base] = pc
