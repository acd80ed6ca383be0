"""Tests for configuration dataclasses, including the paper's Table 1."""

import dataclasses

import pytest

from repro.common import (BranchPredictorParams, CacheParams,
                          ConfigurationError, IQParams, ProcessorParams)
from repro.harness import configs


class TestTable1Defaults:
    """The default ProcessorParams must match the paper's Table 1."""

    def setup_method(self):
        self.params = ProcessorParams()

    def test_fetch_bandwidth(self):
        assert self.params.fetch_width == 8
        assert self.params.max_branches_per_fetch == 3

    def test_pipeline_depths(self):
        assert self.params.fetch_to_decode == 10
        assert self.params.decode_to_dispatch == 5

    def test_dispatch_issue_commit_bandwidth(self):
        assert self.params.dispatch_width == 8
        assert self.params.issue_width == 8
        assert self.params.commit_width == 8

    def test_function_units_eight_each(self):
        assert all(count == 8 for count in self.params.fu_counts.values())
        assert set(self.params.fu_counts) == {
            "int_alu", "int_mul", "fp_add", "fp_mul", "mem_port"}

    def test_l1_caches(self):
        l1i, l1d = self.params.memory.l1i, self.params.memory.l1d
        for cache in (l1i, l1d):
            assert cache.size_bytes == 64 * 1024
            assert cache.assoc == 2
            assert cache.line_bytes == 64
        assert l1i.hit_latency == 1
        assert l1d.hit_latency == 3
        assert l1d.mshr_entries == 32

    def test_l2_cache(self):
        l2 = self.params.memory.l2
        assert l2.size_bytes == 1024 * 1024
        assert l2.assoc == 4
        assert l2.hit_latency == 10
        assert l2.mshr_entries == 32

    def test_main_memory(self):
        assert self.params.memory.main_memory_latency == 100
        assert self.params.memory.memory_bandwidth_bytes == 8

    def test_branch_predictor_21264_style(self):
        bp = self.params.branch
        assert bp.global_history_bits == 13
        assert bp.global_pht_entries == 8192
        assert bp.local_history_regs == 2048
        assert bp.local_history_bits == 11
        assert bp.local_pht_entries == 2048
        assert bp.choice_pht_entries == 8192
        assert bp.btb_entries == 4096
        assert bp.btb_assoc == 4

    def test_rob_is_three_times_iq(self):
        assert self.params.rob_size == 3 * self.params.iq.size

    def test_defaults_validate(self):
        self.params.validate()


class TestIQParams:
    def test_default_segmented_512_by_32(self):
        iq = IQParams()
        assert iq.kind == "segmented"
        assert iq.size == 512
        assert iq.segment_size == 32
        assert iq.num_segments == 16

    def test_extra_dispatch_cycle_for_complex_iqs(self):
        base = ProcessorParams()
        ideal = configs.ideal(512)
        assert base.dispatch_pipeline_depth == ideal.dispatch_pipeline_depth + 1

    def test_segment_size_must_divide(self):
        with pytest.raises(ConfigurationError):
            IQParams(kind="segmented", size=100, segment_size=32).validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            IQParams(kind="magic").validate()

    def test_negative_chains_rejected(self):
        with pytest.raises(ConfigurationError):
            IQParams(kind="segmented", max_chains=0).validate()

    def test_unlimited_chains_allowed(self):
        IQParams(kind="segmented", max_chains=None).validate()

    def test_prescheduled_paper_points(self):
        # Paper section 6.3: 8/24/56/120 lines of 12 -> 128/320/704/1472 slots.
        for lines, total in [(8, 128), (24, 320), (56, 704), (120, 1472)]:
            iq = configs.prescheduled(lines).iq
            assert iq.size == total
            iq.validate()

    def test_segmented_helper(self):
        iq = configs.segmented(256, max_chains=64, variant="lrp").iq
        assert iq.size == 256
        assert iq.max_chains == 64
        assert not iq.use_hit_miss_predictor
        assert iq.use_left_right_predictor


class TestCacheParams:
    def test_num_sets(self):
        cache = CacheParams(size_bytes=64 * 1024, assoc=2, line_bytes=64)
        assert cache.num_sets == 512

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheParams(size_bytes=1000, assoc=3, line_bytes=64).validate()

    def test_zero_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheParams(size_bytes=1024, assoc=1, line_bytes=64,
                        hit_latency=0).validate()


class TestBranchPredictorParams:
    @pytest.mark.parametrize("field, value", [
        ("global_history_bits", 63), ("local_history_bits", 64),
        ("choice_history_bits", -1), ("local_history_regs", 0)])
    def test_tables_that_do_not_fit_are_rejected(self, field, value):
        """Histories live in 64-bit table slots, one per register."""
        with pytest.raises(ConfigurationError):
            dataclasses.replace(BranchPredictorParams(),
                                **{field: value}).validate()


class TestReplaceHelpers:
    def test_with_iq_returns_new_object(self):
        base = ProcessorParams()
        changed = base.with_iq(size=256)
        assert changed.iq.size == 256
        assert base.iq.size == 512
        assert changed.rob_size == 768

    def test_params_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ProcessorParams().fetch_width = 4
