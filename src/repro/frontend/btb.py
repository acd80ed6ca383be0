"""Branch target buffer: 4K entries, 4-way set associative (paper Table 1).

The timing model is trace-driven off the correct path, so the BTB stores no
actual targets — it tracks *whether* the fetch stage would have known the
target of a taken branch.  A predicted-taken branch that misses in the BTB
cannot redirect fetch and therefore costs a full misprediction penalty.
"""

from __future__ import annotations

from typing import List

from repro.common.params import BranchPredictorParams
from repro.common.stats import StatGroup


class BranchTargetBuffer:
    """Set-associative tag store with LRU replacement."""

    def __init__(self, params: BranchPredictorParams,
                 stats: StatGroup) -> None:
        self.num_sets = params.btb_entries // params.btb_assoc
        self.assoc = params.btb_assoc
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.stat_hits = stats.counter("btb.hits")
        self.stat_misses = stats.counter("btb.misses")

    def _set_for(self, pc: int) -> List[int]:
        return self._sets[pc % self.num_sets]

    def lookup(self, pc: int) -> bool:
        """True if the BTB holds a target for the branch at ``pc``."""
        btb_set = self._set_for(pc)
        if pc in btb_set:
            btb_set.remove(pc)
            btb_set.insert(0, pc)
            self.stat_hits.inc()
            return True
        self.stat_misses.inc()
        return False

    def insert(self, pc: int) -> None:
        """Record that the target of the branch at ``pc`` is now known."""
        btb_set = self._set_for(pc)
        if pc in btb_set:
            btb_set.remove(pc)
        elif len(btb_set) >= self.assoc:
            btb_set.pop()
        btb_set.insert(0, pc)
