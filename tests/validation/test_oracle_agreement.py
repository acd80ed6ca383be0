"""Tentpole acceptance: every IQ model agrees with the architectural
oracle on 50 seeded random programs, with invariant checking enabled,
and every thread of a two-thread run retires its own golden stream."""

import math

import pytest

from repro.harness.configs import DESIGNS
from repro.isa import execute
from repro.pipeline import Processor
from repro.pipeline.processor import DATA_SPACE_BYTES
from repro.validation import run_campaign
from repro.validation.generator import FuzzProfile, build_fuzz_program
from repro.validation.oracle import (DEFAULT_MAX_CYCLES, differential_check,
                                     golden_reference, run_pipeline,
                                     values_equal)
from repro.validation.campaign import validation_models

NUM_PROGRAMS = 50


class TestOracleAgreement:
    def test_fifty_programs_all_models_agree(self):
        report = run_campaign(seed=0, num_programs=NUM_PROGRAMS,
                              check_invariants=True, shrink=False)
        assert report.checks == NUM_PROGRAMS * len(validation_models())
        assert report.ok, "\n" + report.summary()

    def test_divergence_free_result_reports_work_done(self):
        program = build_fuzz_program(FuzzProfile(seed=11))
        params = validation_models()["segmented"]
        result = differential_check(program, params)
        assert result.ok
        assert result.instructions > 0
        assert result.cycles > 0


class TestOracleMachinery:
    def test_golden_reference_matches_stream_length(self):
        program = build_fuzz_program(FuzzProfile(seed=5))
        state, stream = golden_reference(program)
        assert state.instruction_count == len(stream)
        assert stream[0].seq == 0
        assert [d.seq for d in stream] == list(range(len(stream)))

    def test_nan_safe_value_comparison(self):
        nan = float("nan")
        assert values_equal(nan, nan)
        assert not values_equal(nan, 0.0)
        assert not values_equal(1.0, nan)
        assert values_equal(math.inf, math.inf)
        assert not values_equal(math.inf, -math.inf)
        assert values_equal(3, 3.0)

    def test_invariant_checker_actually_runs(self):
        program = build_fuzz_program(FuzzProfile(seed=6))
        params = validation_models()["segmented"].replace(
            check_invariants=True)
        retired, processor = run_pipeline(program, params)
        assert processor.invariant_checker is not None
        assert processor.invariant_checker.checks_run == processor.cycle
        assert len(retired) == processor.committed

    def test_invariant_checker_off_by_default(self):
        program = build_fuzz_program(FuzzProfile(seed=6))
        _, processor = run_pipeline(program, validation_models()["ideal"])
        assert processor.invariant_checker is None


class TestMultiThreadOracle:
    """Each thread of a two-thread run retires exactly its own program's
    golden stream."""

    @pytest.mark.parametrize("kind", sorted(DESIGNS))
    def test_each_thread_retires_its_golden_stream(self, kind):
        programs = [build_fuzz_program(FuzzProfile(seed=seed))
                    for seed in (21, 22)]
        params = DESIGNS[kind].conformance_config().replace(
            check_invariants=True)
        processor = Processor(params, [execute(p) for p in programs])
        for thread, program in enumerate(programs):
            processor.warm_code(program, thread)
        retired = [[] for _ in programs]
        processor.commit_listeners.append(
            lambda inst, cycle: retired[inst.thread].append(inst))
        processor.run(max_cycles=DEFAULT_MAX_CYCLES)
        assert processor.done
        for thread, program in enumerate(programs):
            _, golden = golden_reference(program)
            got = retired[thread]
            offset = thread * DATA_SPACE_BYTES
            assert len(got) == len(golden)
            assert [(d.pc, d.static) for d in got] == \
                [(d.pc, d.static) for d in golden]
            assert [None if d.mem_addr is None else d.mem_addr - offset
                    for d in got] == [d.mem_addr for d in golden]
            assert processor.committed_per_thread[thread] == len(golden)
