"""Tests for the hybrid branch predictor and BTB."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import BranchPredictorParams, StatGroup
from repro.frontend import BranchTargetBuffer, HybridBranchPredictor


def make_predictor(**overrides):
    params = BranchPredictorParams(**overrides)
    return HybridBranchPredictor(params, StatGroup())


class TestHybridPredictor:
    def test_learns_always_taken(self):
        # History registers need to saturate before the indexed PHT entries
        # stabilize, so allow a realistic warmup.
        predictor = make_predictor()
        for _ in range(100):
            predictor.update(pc=100, taken=True)
        assert predictor.predict(100) is True

    def test_learns_always_not_taken(self):
        predictor = make_predictor()
        for _ in range(100):
            predictor.update(pc=100, taken=False)
        assert predictor.predict(100) is False

    def test_local_component_learns_short_period_pattern(self):
        # Pattern TTTN repeating: local history should capture it once warm.
        predictor = make_predictor()
        pattern = [True, True, True, False]
        correct = 0
        trials = 400
        for i in range(trials):
            taken = pattern[i % 4]
            if predictor.update(pc=200, taken=taken):
                correct += 1
        # After warmup, accuracy should be near-perfect; overall well above
        # the 75% a static taken-bias would give.
        assert correct / trials > 0.9

    def test_accuracy_accounts_all_updates(self):
        predictor = make_predictor()
        for i in range(50):
            predictor.update(pc=i, taken=True)
        assert 0.0 <= predictor.accuracy <= 1.0

    def test_interleaved_branches_do_not_destroy_each_other(self):
        predictor = make_predictor()
        correct_a = correct_b = 0
        for i in range(600):
            correct_a += predictor.update(pc=40, taken=True)
            correct_b += predictor.update(pc=44, taken=False)
        assert correct_a / 600 > 0.95
        assert correct_b / 600 > 0.95

    def test_loop_branch_high_accuracy(self):
        # 100 iterations taken, 1 not-taken exit, repeated: the classic
        # loop-branch pattern the paper's benchmarks rely on.
        predictor = make_predictor()
        correct = total = 0
        for _rep in range(20):
            for i in range(100):
                correct += predictor.update(pc=8, taken=i < 99)
                total += 1
        assert correct / total > 0.95


class TestBTB:
    def make(self):
        return BranchTargetBuffer(BranchPredictorParams(), StatGroup())

    def test_miss_then_hit(self):
        btb = self.make()
        assert not btb.lookup(pc=64)
        btb.insert(pc=64)
        assert btb.lookup(pc=64)

    def test_lru_within_set(self):
        params = BranchPredictorParams(btb_entries=8, btb_assoc=4)
        btb = BranchTargetBuffer(params, StatGroup())
        # All these PCs map to set 0 (pc % 2 == 0).
        pcs = [0, 2, 4, 6]
        for pc in pcs:
            btb.insert(pc)
        btb.lookup(0)          # make pc 0 most-recent
        btb.insert(8)          # evicts pc 2 (the LRU)
        assert btb.lookup(0)
        assert not btb.lookup(2)

    def test_stats_count(self):
        stats = StatGroup()
        btb = BranchTargetBuffer(BranchPredictorParams(), stats)
        btb.lookup(4)
        btb.insert(4)
        btb.lookup(4)
        assert stats.get("btb.misses") == 1
        assert stats.get("btb.hits") == 1


class _ListBTB:
    """The reference BTB: one list per set, most recently used first."""

    def __init__(self, num_sets, assoc):
        self.assoc = assoc
        self.sets = [[] for _ in range(num_sets)]

    def lookup(self, pc):
        btb_set = self.sets[pc % len(self.sets)]
        if pc in btb_set:
            btb_set.remove(pc)
            btb_set.insert(0, pc)
            return True
        return False

    def insert(self, pc):
        btb_set = self.sets[pc % len(self.sets)]
        if pc in btb_set:
            btb_set.remove(pc)
        elif len(btb_set) >= self.assoc:
            btb_set.pop()
        btb_set.insert(0, pc)


@settings(max_examples=200, deadline=None)
@given(assoc=st.sampled_from([1, 2, 4]),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 40)),
                    max_size=120))
def test_flat_btb_matches_list_reference(assoc, ops):
    """Random lookups and inserts: the flat array gives the hits and
    misses of a list-of-lists BTB and holds each set in its MRU order,
    empty slots (-1) trailing."""
    stats = StatGroup()
    btb = BranchTargetBuffer(
        BranchPredictorParams(btb_entries=4 * assoc, btb_assoc=assoc), stats)
    reference = _ListBTB(4, assoc)
    hits = 0
    for is_lookup, pc in ops:
        if is_lookup:
            found = reference.lookup(pc)
            assert btb.lookup(pc) == found
            hits += found
        else:
            btb.insert(pc)
            reference.insert(pc)
    assert stats.get("btb.hits") == hits
    assert stats.get("btb.misses") == sum(op for op, _pc in ops) - hits
    assert [list(btb._pcs[s * assoc:(s + 1) * assoc])
            for s in range(4)] == [ways + [-1] * (assoc - len(ways))
                                   for ways in reference.sets]
