"""Hybrid local/global branch predictor, "a la 21264" (paper Table 1).

Three structures, all of 2-bit saturating counters:

* **global**: a 13-bit global history register indexes an 8K-entry PHT;
* **local**: 2K per-branch 11-bit history registers (indexed by PC) index a
  2K-entry PHT;
* **choice**: the 13-bit global history indexes an 8K-entry PHT that picks
  which component's prediction to use.

The choice table trains toward whichever component was correct when they
disagree, as in the 21264 tournament scheme.

Each table is one flat typed array: the three pattern tables are
``bytearray``s of counters and the local histories one ``array('q')``.
On one-thread, untraced compiled runs the fetch stage
(``_ckernels.FetchStage``) trains them itself through buffer exports,
with ``_global_history`` and the same counters; :meth:`update` is its
Python twin.
"""

from __future__ import annotations

from array import array

from repro.common.params import BranchPredictorParams
from repro.common.stats import StatGroup


def _saturate_update(counter: int, taken: bool, maximum: int = 3) -> int:
    if taken:
        return min(maximum, counter + 1)
    return max(0, counter - 1)


class HybridBranchPredictor:
    """Tournament predictor with local and global components."""

    # Slotted: the compiled fetch stage reads and writes _global_history
    # through its slot.
    __slots__ = ("params", "_global_history", "_global_mask", "_global_pht",
                 "_local_histories", "_local_mask", "_local_pht",
                 "_choice_pht", "_choice_mask", "stat_lookups",
                 "stat_correct", "stat_mispredicts")

    def __init__(self, params: BranchPredictorParams,
                 stats: StatGroup) -> None:
        params.validate()
        self.params = params
        self._global_history = 0
        self._global_mask = (1 << params.global_history_bits) - 1
        self._global_pht = bytearray([1]) * params.global_pht_entries
        self._local_histories = array("q", [0]) * params.local_history_regs
        self._local_mask = (1 << params.local_history_bits) - 1
        self._local_pht = bytearray([1]) * params.local_pht_entries
        self._choice_pht = bytearray([2]) * params.choice_pht_entries
        self._choice_mask = (1 << params.choice_history_bits) - 1

        self.stat_lookups = stats.counter("bpred.lookups")
        self.stat_correct = stats.counter("bpred.correct")
        self.stat_mispredicts = stats.counter("bpred.mispredicts")

    # ----------------------------------------------------------- predict --
    def _global_index(self) -> int:
        return (self._global_history & self._global_mask) % len(self._global_pht)

    def _local_index(self, pc: int) -> int:
        history_reg = pc % len(self._local_histories)
        history = self._local_histories[history_reg] & self._local_mask
        return history % len(self._local_pht)

    def _choice_index(self) -> int:
        return (self._global_history & self._choice_mask) % len(self._choice_pht)

    def predict(self, pc: int) -> bool:
        """Predict the direction of the branch at ``pc``."""
        self.stat_lookups.inc()
        use_global = self._choice_pht[self._choice_index()] >= 2
        if use_global:
            return self._global_pht[self._global_index()] >= 2
        return self._local_pht[self._local_index(pc)] >= 2

    # ------------------------------------------------------------ update --
    def update(self, pc: int, taken: bool) -> bool:
        """Train on the resolved outcome; returns True if the prediction
        (recomputed against current state) was correct.

        The simulator fetches in correct-path order, so predicting and
        updating in one call keeps the predictor state exactly in program
        order.
        """
        global_index = self._global_index()
        local_index = self._local_index(pc)
        choice_index = self._choice_index()

        global_pred = self._global_pht[global_index] >= 2
        local_pred = self._local_pht[local_index] >= 2
        use_global = self._choice_pht[choice_index] >= 2
        prediction = global_pred if use_global else local_pred
        correct = prediction == taken

        if correct:
            self.stat_correct.inc()
        else:
            self.stat_mispredicts.inc()

        # Train the choice table only on disagreement.
        if global_pred != local_pred:
            self._choice_pht[choice_index] = _saturate_update(
                self._choice_pht[choice_index], global_pred == taken)

        self._global_pht[global_index] = _saturate_update(
            self._global_pht[global_index], taken)
        self._local_pht[local_index] = _saturate_update(
            self._local_pht[local_index], taken)

        history_reg = pc % len(self._local_histories)
        self._local_histories[history_reg] = (
            (self._local_histories[history_reg] << 1) | int(taken)) & self._local_mask
        self._global_history = (
            (self._global_history << 1) | int(taken)) & self._global_mask
        return correct

    @property
    def accuracy(self) -> float:
        total = self.stat_correct.value + self.stat_mispredicts.value
        return self.stat_correct.value / total if total else 0.0
