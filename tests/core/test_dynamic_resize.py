"""Tests for dynamic segment resizing (the paper's section-7 future work).

"The segmented structure lends itself naturally to dynamic resizing by
gating clocks and/or power on a segment granularity, based on power
constraints or power/performance trade-offs."
"""

import pytest

from repro.common import ConfigurationError
from repro.harness import configs
from repro.isa import execute
from repro.pipeline import Processor
from repro.workloads import WORKLOADS

from tests.conftest import daxpy_program, dependent_chain_program


def low_occupancy_program():
    """Mispredict-bound code keeps the queue nearly empty: the front end
    stalls at every hard branch, so few instructions are in flight."""
    return WORKLOADS["gcc"].build(1)


def resize_params(size=512, **overrides):
    return configs.segmented(size, max_chains=128).with_iq(
        dynamic_resize=True, **overrides)


def run(program, params, max_cycles=1_000_000):
    processor = Processor(params, execute(program))
    processor.warm_code(program)
    processor.run(max_cycles=max_cycles)
    return processor


class TestConfiguration:
    def test_validates(self):
        resize_params().validate()

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            resize_params(resize_interval=0).validate()

    def test_bad_watermark_rejected(self):
        with pytest.raises(ConfigurationError):
            resize_params(resize_low_watermark=1.5).validate()

    def test_bad_min_segments_rejected(self):
        with pytest.raises(ConfigurationError):
            resize_params(min_active_segments=99).validate()


class TestResizingBehaviour:
    def test_correctness_preserved(self):
        program = daxpy_program(n=512)
        expected = sum(1 for _ in execute(program))
        processor = run(program, resize_params())
        assert processor.done
        assert processor.committed == expected

    def test_low_demand_shrinks_the_queue(self):
        # Mispredict-bound code keeps occupancy far below capacity: the
        # controller should gate segments off.
        program = low_occupancy_program()
        processor = run(program, resize_params(resize_interval=100))
        assert processor.stats.get("iq.resize_shrink") > 0
        assert processor.iq.active_segments < processor.iq.num_segments

    def test_high_demand_grows_back(self):
        # Memory-bound streaming wants the full window: after shrinking,
        # dispatch pressure must grow the active region again.
        program = daxpy_program(n=4096)
        params = resize_params(resize_interval=50)
        processor = run(program, params)
        assert processor.stats.get("iq.resize_grow") > 0

    def test_active_segments_respect_minimum(self):
        program = low_occupancy_program()
        params = resize_params(resize_interval=50, min_active_segments=3)
        processor = run(program, params)
        assert processor.iq.active_segments >= 3

    def test_powered_cycles_below_static_queue(self):
        # The power win: on low-occupancy code, segment-cycles powered
        # should be well below the static all-segments-on product.
        program = low_occupancy_program()
        processor = run(program, resize_params(resize_interval=100))
        powered = processor.stats.get("iq.powered_segment_cycles")
        static = processor.iq.num_segments * processor.cycle
        assert powered < 0.8 * static

    def test_performance_cost_is_bounded_on_streaming(self):
        program = daxpy_program(n=2048)
        fixed = run(program, configs.segmented(512, max_chains=128))
        adaptive = run(program, resize_params(resize_interval=50))
        assert adaptive.cycle < fixed.cycle * 1.6

    def test_static_config_never_resizes(self):
        program = daxpy_program(n=256)
        processor = run(program, configs.segmented(512, max_chains=128))
        assert processor.stats.get("iq.resize_grow") == 0
        assert processor.stats.get("iq.resize_shrink") == 0
        assert processor.iq.active_segments == processor.iq.num_segments
