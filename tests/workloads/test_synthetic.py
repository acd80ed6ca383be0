"""Tests for the parametric synthetic kernel generator."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.harness import configs
from repro.isa import execute, run_functional
from repro.pipeline import Processor
from repro.workloads.synthetic import (ACCESS_PATTERNS, SyntheticProfile,
                                       build_synthetic)


def run_profile(profile, params=None, max_cycles=2_000_000):
    program = build_synthetic(profile)
    processor = Processor(params or configs.ideal(128), execute(program))
    processor.warm_code(program)
    processor.run(max_cycles=max_cycles)
    return processor


class TestValidation:
    def test_default_profile_valid(self):
        SyntheticProfile().validate()

    @pytest.mark.parametrize("overrides", [
        {"iterations": 0},
        {"access_pattern": "teleport"},
        {"footprint_words": 32},
        {"footprint_words": 1000},           # not a power of two
        {"hard_branch_bias": 1.5},
        {"loads_per_iteration": -1},
        {"loads_per_iteration": 0, "stores_per_iteration": 1},
    ])
    def test_bad_profiles_rejected(self, overrides):
        import dataclasses
        profile = dataclasses.replace(SyntheticProfile(), **overrides)
        with pytest.raises(ConfigurationError):
            profile.validate()


class TestGeneratedPrograms:
    @pytest.mark.parametrize("pattern", ACCESS_PATTERNS)
    def test_every_pattern_builds_and_halts(self, pattern):
        profile = SyntheticProfile(iterations=100, access_pattern=pattern,
                                   footprint_words=1024)
        program = build_synthetic(profile)
        state = run_functional(program, max_instructions=100_000)
        assert state.halted

    def test_deterministic_for_same_seed(self):
        a = build_synthetic(SyntheticProfile(iterations=50, seed=7,
                                             access_pattern="scatter"))
        b = build_synthetic(SyntheticProfile(iterations=50, seed=7,
                                             access_pattern="scatter"))
        assert a.initial_memory == b.initial_memory
        assert [str(x) for x in a.instructions] == \
            [str(y) for y in b.instructions]

    def test_different_seed_changes_pattern(self):
        a = build_synthetic(SyntheticProfile(iterations=50, seed=1,
                                             access_pattern="scatter"))
        b = build_synthetic(SyntheticProfile(iterations=50, seed=2,
                                             access_pattern="scatter"))
        assert a.initial_memory != b.initial_memory

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(loads=st.integers(min_value=0, max_value=4),
           stores=st.integers(min_value=0, max_value=2),
           depth=st.integers(min_value=1, max_value=8),
           pattern=st.sampled_from(ACCESS_PATTERNS))
    def test_arbitrary_profiles_run_to_completion(self, loads, stores,
                                                  depth, pattern):
        if stores > 0 and loads == 0:
            loads = 1
        profile = SyntheticProfile(iterations=30,
                                   loads_per_iteration=loads,
                                   stores_per_iteration=stores,
                                   fp_chain_depth=depth,
                                   access_pattern=pattern,
                                   footprint_words=512)
        processor = run_profile(profile)
        assert processor.done


class TestProfileCharacter:
    def test_hard_branches_hurt_prediction(self):
        easy = run_profile(SyntheticProfile(iterations=600,
                                            hard_branch_bias=0.0))
        hard = run_profile(SyntheticProfile(iterations=600,
                                            hard_branch_bias=0.9))
        assert hard.frontend.bpred.accuracy < easy.frontend.bpred.accuracy

    def test_chase_pattern_is_serial(self):
        chase = run_profile(SyntheticProfile(
            iterations=300, loads_per_iteration=1, stores_per_iteration=0,
            access_pattern="chase", footprint_words=8192,
            fp_chain_depth=1, fp_parallel_ops=0, int_ops=0))
        stream = run_profile(SyntheticProfile(
            iterations=300, loads_per_iteration=1, stores_per_iteration=0,
            access_pattern="stream", footprint_words=8192,
            fp_chain_depth=1, fp_parallel_ops=0, int_ops=0))
        assert chase.cycle > 1.5 * stream.cycle

    def test_bigger_footprint_means_more_misses(self):
        small = run_profile(SyntheticProfile(
            iterations=400, footprint_words=1024,
            access_pattern="scatter"))
        large = run_profile(SyntheticProfile(
            iterations=400, footprint_words=1 << 15,
            access_pattern="scatter"))
        small_misses = small.stats.get("l1d.misses")
        large_misses = large.stats.get("l1d.misses")
        assert large_misses > small_misses

    def test_deep_chains_limit_ilp(self):
        shallow = run_profile(SyntheticProfile(
            iterations=400, fp_chain_depth=1, fp_parallel_ops=6))
        deep = run_profile(SyntheticProfile(
            iterations=400, fp_chain_depth=10, fp_parallel_ops=6))
        assert deep.cycle > shallow.cycle
