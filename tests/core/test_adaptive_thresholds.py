"""Tests for adaptive segment thresholds (the section-4.1 alternative)."""

import pytest

from repro.harness import configs
from repro.isa import execute
from repro.pipeline import Processor

from tests.conftest import daxpy_program


def adaptive_params(interval=50, pushdown=False):
    return configs.segmented(256, max_chains=64, pushdown=pushdown).with_iq(
        adaptive_thresholds=True, threshold_update_interval=interval)


def run(program, params, max_instructions=None):
    processor = Processor(params, execute(
        program, max_instructions=max_instructions))
    processor.warm_code(program)
    processor.run(max_cycles=2_000_000)
    return processor


class TestAdaptiveThresholds:
    def test_correctness_preserved(self):
        program = daxpy_program(n=256)
        expected = sum(1 for _ in execute(program))
        processor = run(program, adaptive_params())
        assert processor.done
        assert processor.committed == expected

    def test_refits_happen(self):
        processor = run(daxpy_program(n=2048), adaptive_params(),
                        max_instructions=8000)
        assert processor.stats.get("iq.threshold_refits") > 0

    def test_thresholds_stay_monotone(self):
        program = daxpy_program(n=2048)
        params = adaptive_params(interval=25)
        processor = Processor(params, execute(program,
                                              max_instructions=6000))
        processor.warm_code(program)
        while not processor.done and processor.cycle < 500_000:
            processor.step()
            if processor.cycle % 100 == 0:
                gates = [segment.promote_threshold
                         for segment in processor.iq.segments]
                # Promote gates must be strictly increasing past segment 1
                # (gate of segment k = admission bound of segment k-1).
                assert all(b > a for a, b in zip(gates[1:], gates[2:])), gates
        assert processor.done or processor.cycle >= 500_000

    def test_segment_zero_threshold_fixed(self):
        processor = run(daxpy_program(n=2048), adaptive_params(interval=25),
                        max_instructions=6000)
        # Gate of segment 1 (into segment 0) must stay at the paper's 2:
        # it encodes the back-to-back issue rule, not a utilization knob.
        assert processor.iq.segments[1].promote_threshold == 2

    def test_static_config_never_refits(self):
        program = daxpy_program(n=512)
        processor = run(program, configs.segmented(256, max_chains=64))
        assert processor.stats.get("iq.threshold_refits") == 0

    def test_adaptive_helps_when_pushdown_is_off(self):
        program = daxpy_program(n=4096)
        without = run(program,
                      configs.segmented(256, max_chains=64, pushdown=False),
                      max_instructions=8000)
        adaptive = run(program, adaptive_params(), max_instructions=8000)
        assert adaptive.cycle <= without.cycle * 1.05
