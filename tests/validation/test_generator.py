"""The fuzzer's safety contract: deterministic, terminating, trap-free."""

import pytest

from repro.common.errors import ConfigurationError
from repro.validation.generator import (FuzzProfile, build_fuzz_program,
                                        fuzz_corpus)
from repro.validation.oracle import golden_reference


class TestDeterminism:
    def test_same_seed_same_program(self):
        a = build_fuzz_program(FuzzProfile(seed=7))
        b = build_fuzz_program(FuzzProfile(seed=7))
        assert [str(i) for i in a.instructions] == \
               [str(i) for i in b.instructions]
        assert a.initial_memory == b.initial_memory

    def test_different_seeds_differ(self):
        a = build_fuzz_program(FuzzProfile(seed=0))
        b = build_fuzz_program(FuzzProfile(seed=1))
        assert [str(i) for i in a.instructions] != \
               [str(i) for i in b.instructions]

    def test_corpus_seeds_are_sequential(self):
        corpus = fuzz_corpus(FuzzProfile(seed=10), 3)
        assert [p.name for p in corpus] == ["fuzz-10", "fuzz-11", "fuzz-12"]


class TestSafety:
    @pytest.mark.parametrize("seed", range(20))
    def test_programs_terminate_without_trapping(self, seed):
        program = build_fuzz_program(FuzzProfile(seed=seed))
        program.validate()
        state, stream = golden_reference(program, max_instructions=100_000)
        assert state.halted, "program must reach its halt, not the limit"
        assert stream[-1].static.is_halt

    @pytest.mark.parametrize("profile", [
        FuzzProfile(seed=2, chain_bias=1.0),
        FuzzProfile(seed=2, chain_bias=0.0),
        FuzzProfile(seed=2, miss_bias=1.0, load_frac=0.5, store_frac=0.3,
                    branch_frac=0.0, fp_frac=0.2),
        FuzzProfile(seed=2, fp_frac=0.9, load_frac=0.05, store_frac=0.05,
                    branch_frac=0.0, loop_iterations=10),
        FuzzProfile(seed=2, length=200, loop_iterations=5),
    ], ids=["all-chained", "no-chains", "all-memory", "fp-heavy", "long"])
    def test_extreme_profiles_still_safe(self, profile):
        state, _ = golden_reference(build_fuzz_program(profile),
                                    max_instructions=500_000)
        assert state.halted

    def test_loop_count_controls_dynamic_length(self):
        short = build_fuzz_program(FuzzProfile(seed=4, branch_frac=0.0,
                                               loop_iterations=2))
        long = build_fuzz_program(FuzzProfile(seed=4, branch_frac=0.0,
                                              loop_iterations=8))
        _, short_stream = golden_reference(short)
        _, long_stream = golden_reference(long)
        assert len(long_stream) > len(short_stream)


class TestProfileValidation:
    @pytest.mark.parametrize("kwargs", [
        {"length": 0},
        {"loop_iterations": 0},
        {"chain_bias": 1.5},
        {"miss_bias": -0.1},
        {"load_frac": 0.5, "store_frac": 0.3, "branch_frac": 0.2,
         "fp_frac": 0.2},
        {"hot_words": 100},          # not a power of two
        {"cold_words": 32},          # too small
    ])
    def test_bad_profiles_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FuzzProfile(**kwargs).validate()
