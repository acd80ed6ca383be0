"""Dispatch-stage predictors used to conserve chain resources.

* :class:`HitMissPredictor` (paper section 4.4): a table of 4-bit saturating
  counters indexed by PC.  Incremented on a cache hit, cleared on a miss; a
  load is predicted to hit only when its counter exceeds a high confidence
  threshold (13 of 15), because predicting "hit" wrongly floods segment 0
  with unready dependents.  Predicted-hit loads do not start chains.

* :class:`LeftRightPredictor` (paper section 4.3): a table of 2-bit
  saturating counters indexed by PC that predicts which of a two-operand
  instruction's inputs will arrive *later* (the critical operand).  With an
  LRP each instruction follows at most one chain, and two-chain instructions
  no longer need to become chain heads.

These classes are the reference.  In a segmented IQ the kernel engine
(:mod:`repro.core.segmented.kernels`) makes every consult and training
call: the pure-Python engine calls the methods below, and the compiled
engine runs the same bodies inline on each predictor's own ``__slots__``
state (its ``_counters`` table, the HMP's ``_outstanding`` predictions
and the counters), so a predictor reads the same after a run on either
backend.
"""

from __future__ import annotations

from typing import Dict

from repro.common.stats import StatGroup

#: Memory levels that count as "hit" for HMP training.  Delayed hits (merged
#: into an outstanding miss) train as misses, as in the paper's analysis.
HIT_LEVELS = frozenset({"l1", "forward"})


class HitMissPredictor:
    """Per-PC 4-bit confidence counters for L1 data-cache hit prediction."""

    __slots__ = ("max_count", "confidence", "table_size", "_counters",
                 "stat_predictions", "stat_predicted_hits",
                 "stat_correct_hits", "stat_wrong_hits", "stat_actual_hits",
                 "stat_actual_misses", "stat_covered_hits", "_outstanding")

    def __init__(self, stats: StatGroup, *, counter_bits: int = 4,
                 confidence: int = 13, table_size: int = 4096) -> None:
        self.max_count = (1 << counter_bits) - 1
        self.confidence = confidence
        self.table_size = table_size
        self._counters: Dict[int, int] = {}
        self.stat_predictions = stats.counter("hmp.predictions")
        self.stat_predicted_hits = stats.counter("hmp.predicted_hits")
        self.stat_correct_hits = stats.counter(
            "hmp.correct_hit_predictions", "predicted hit and did hit")
        self.stat_wrong_hits = stats.counter(
            "hmp.wrong_hit_predictions", "predicted hit but missed")
        self.stat_actual_hits = stats.counter("hmp.actual_hits")
        self.stat_actual_misses = stats.counter("hmp.actual_misses")
        self.stat_covered_hits = stats.counter(
            "hmp.covered_hits", "actual hits that were predicted as hits")
        # Outstanding predictions, keyed by dynamic seq.
        self._outstanding: Dict[int, bool] = {}

    def _index(self, pc: int) -> int:
        return pc % self.table_size

    def predict_hit(self, pc: int, seq: int) -> bool:
        """Predict whether the load at ``pc`` will hit in the L1."""
        self.stat_predictions.inc()
        predicted = (self._counters.get(pc % self.table_size, 0)
                     > self.confidence)
        if predicted:
            self.stat_predicted_hits.inc()
        self._outstanding[seq] = predicted
        return predicted

    def train(self, pc: int, seq: int, level: str) -> None:
        """Train on the load's actual outcome when it completes."""
        hit = level in HIT_LEVELS
        index = pc % self.table_size
        if hit:
            count = self._counters.get(index, 0)
            if count < self.max_count:
                self._counters[index] = count + 1
            self.stat_actual_hits.inc()
        else:
            self._counters[index] = 0
            self.stat_actual_misses.inc()
        predicted = self._outstanding.pop(seq, None)
        if predicted:
            if hit:
                self.stat_correct_hits.inc()
            else:
                self.stat_wrong_hits.inc()
        if hit and predicted:
            self.stat_covered_hits.inc()

    @property
    def hit_prediction_accuracy(self) -> float:
        """Of the loads predicted to hit, the fraction that actually hit."""
        total = self.stat_correct_hits.value + self.stat_wrong_hits.value
        return self.stat_correct_hits.value / total if total else 0.0

    @property
    def hit_coverage(self) -> float:
        """Fraction of actual hits that were predicted as hits."""
        hits = self.stat_actual_hits.value
        return self.stat_covered_hits.value / hits if hits else 0.0


class LeftRightPredictor:
    """Per-PC 2-bit counters predicting the later-arriving operand.

    Counter semantics: >= 2 predicts the *left* (first) operand arrives
    later; < 2 predicts the right.  Trained with the observed arrival order
    once both operand ready-times are known.
    """

    LEFT = 0
    RIGHT = 1

    __slots__ = ("table_size", "_counters", "stat_predictions",
                 "stat_correct", "stat_wrong")

    def __init__(self, stats: StatGroup, *, table_size: int = 4096) -> None:
        self.table_size = table_size
        self._counters: Dict[int, int] = {}
        self.stat_predictions = stats.counter("lrp.predictions")
        self.stat_correct = stats.counter("lrp.correct")
        self.stat_wrong = stats.counter("lrp.wrong")

    def _index(self, pc: int) -> int:
        return pc % self.table_size

    def predict_later(self, pc: int) -> int:
        """Return LEFT or RIGHT: the operand predicted to arrive later."""
        self.stat_predictions.inc()
        counter = self._counters.get(pc % self.table_size, 2)
        return self.LEFT if counter >= 2 else self.RIGHT

    def train(self, pc: int, left_ready: int, right_ready: int,
              predicted: int) -> None:
        """Train with the observed operand arrival cycles."""
        later = self.LEFT if left_ready >= right_ready else self.RIGHT
        index = pc % self.table_size
        counter = self._counters.get(index, 2)
        if later == self.LEFT:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)
        if predicted == later or left_ready == right_ready:
            self.stat_correct.inc()
        else:
            self.stat_wrong.inc()

    @property
    def accuracy(self) -> float:
        total = self.stat_correct.value + self.stat_wrong.value
        return self.stat_correct.value / total if total else 0.0
