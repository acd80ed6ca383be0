"""Tests for the statistics primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common._ckload import compiled_kernels
from repro.common.stats import (Counter, Distribution, PyDistribution,
                                StatGroup, ratio)

_CK = compiled_kernels(honor_env=False)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_inc_default_and_amount(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_reset(self):
        counter = Counter("c")
        counter.inc(3)
        counter.reset()
        assert counter.value == 0


class TestDistribution:
    def test_empty_distribution_is_safe(self):
        dist = Distribution("d")
        assert dist.mean == 0.0
        assert dist.peak == 0.0
        assert dist.count == 0
        # Never-sampled distributions report 0, not +/-inf, so report()
        # and downstream arithmetic stay finite.
        assert dist.minimum == 0
        assert dist.maximum == 0

    def test_empty_distribution_reports_finite_values(self):
        group = StatGroup()
        group.distribution("never.sampled")
        report = group.report()
        assert "inf" not in report

    def test_mean_min_max(self):
        dist = Distribution("d")
        for value in [1, 2, 3, 10]:
            dist.sample(value)
        assert dist.mean == 4.0
        assert dist.minimum == 1
        assert dist.maximum == 10
        assert dist.peak == 10

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), min_size=1))
    def test_matches_reference_implementation(self, samples):
        dist = Distribution("d")
        for value in samples:
            dist.sample(value)
        assert dist.count == len(samples)
        assert dist.minimum == min(samples)
        assert dist.maximum == max(samples)
        assert abs(dist.total - sum(samples)) <= 1e-6 * max(
            1.0, abs(sum(samples)))


class TestStatGroup:
    def test_counter_identity_on_same_name(self):
        group = StatGroup()
        assert group.counter("a") is group.counter("a")

    def test_get_counter_and_distribution(self):
        group = StatGroup()
        group.counter("hits").inc(7)
        group.distribution("occ").sample(4)
        group.distribution("occ").sample(6)
        assert group.get("hits") == 7
        assert group.get("occ") == 5.0

    def test_contains(self):
        group = StatGroup()
        group.counter("x")
        assert "x" in group
        assert "y" not in group

    def test_as_dict_flattens(self):
        group = StatGroup()
        group.counter("commits").inc(10)
        group.distribution("iq.occ").sample(3)
        flattened = group.as_dict()
        assert flattened["commits"] == 10
        assert flattened["iq.occ.mean"] == 3
        assert flattened["iq.occ.peak"] == 3

    def test_reset_clears_everything(self):
        group = StatGroup()
        group.counter("a").inc()
        group.distribution("b").sample(1)
        group.reset()
        assert group.get("a") == 0
        assert group.get("b") == 0.0

    def test_report_contains_names(self):
        group = StatGroup("core")
        group.counter("cycles").inc(100)
        text = group.report()
        assert "core" in text
        assert "cycles" in text
        assert "100" in text


#: Sample sequences as ``(value,)`` for ``sample`` or ``(value, repeats)``
#: for ``sample_n``; "mixed" ties an int and a float at each extreme.
VALUE_TYPE_SEQUENCES = {
    "int": [(3,), (1,), (5, 4), (2,), (0, 0)],
    "float": [(1.5,), (0.25, 3), (2.75,)],
    "mixed": [(3,), (3.0,), (1.0,), (1,), (7, 2), (7.0, 1), (2.5,)],
    "empty": [(4, 0), (4.0, 0)],
}


def _drive(cls, sequence):
    dist = cls("d")
    for op in sequence:
        if len(op) == 1:
            dist.sample(op[0])
        else:
            dist.sample_n(*op)
    return dist


def _typed_extremes(dist):
    return [(type(value), value) for value in
            (dist.minimum, dist.maximum, dist.peak, dist.mean)]


@pytest.mark.skipif(_CK is None, reason="compiled kernel extension absent")
@pytest.mark.parametrize("name", sorted(VALUE_TYPE_SEQUENCES))
class TestCompiledDistributionValueTypes:
    """The compiled Distribution returns the Python twin's value types:
    int samples give int extremes, an empty peak stays ``0.0``."""

    def test_extremes_keep_the_sample_type(self, name):
        sequence = VALUE_TYPE_SEQUENCES[name]
        assert (_typed_extremes(_drive(_CK.Distribution, sequence))
                == _typed_extremes(_drive(PyDistribution, sequence)))


class TestRatio:
    def test_normal(self):
        assert ratio(1, 2) == 0.5

    def test_zero_denominator(self):
        assert ratio(5, 0) == 0.0
