"""Tests for the energy-proxy model."""

import pytest

from repro import api
from repro.harness import configs
from repro.harness.energy import (DEFAULT_WEIGHTS, EnergyModel,
                                  energy_per_instruction, format_breakdown)


@pytest.fixture(scope="module")
def runs():
    seg_params = configs.segmented(512, 128, "comb")
    ideal_params = configs.ideal(512)
    seg = api.run(seg_params, "twolf", max_instructions=6000)
    ideal = api.run(ideal_params, "twolf", max_instructions=6000)
    return seg, seg_params, ideal, ideal_params


class TestEnergyModel:
    def test_breakdown_totals(self, runs):
        seg, seg_params, _, _ = runs
        model = EnergyModel()
        breakdown = model.estimate_run(seg, seg_params)
        parts = sum(value for key, value in breakdown.items()
                    if key != "total")
        assert breakdown["total"] == pytest.approx(parts)
        assert breakdown["total"] > 0

    def test_segmented_pays_for_promotions(self, runs):
        seg, seg_params, _, _ = runs
        breakdown = EnergyModel().estimate_run(seg, seg_params)
        # Section 7's concern: segment-to-segment copies cost energy.
        assert breakdown.get("iq.promotions", 0) > 0

    def test_ideal_pays_for_wide_wakeup(self, runs):
        seg, seg_params, ideal, ideal_params = runs
        model = EnergyModel()
        seg_breakdown = model.estimate_run(seg, seg_params)
        ideal_breakdown = model.estimate_run(ideal, ideal_params)
        # The 512-entry broadcast costs 16x the 32-entry segment search
        # per issue.
        assert (ideal_breakdown["wakeup_broadcast"]
                > 4 * seg_breakdown["wakeup_broadcast"])

    def test_energy_per_instruction(self, runs):
        seg, seg_params, _, _ = runs
        breakdown = EnergyModel().estimate_run(seg, seg_params)
        epi = energy_per_instruction(breakdown, seg.instructions)
        assert epi > 0
        assert energy_per_instruction(breakdown, 0) == 0.0

    def test_custom_weights(self, runs):
        seg, seg_params, _, _ = runs
        silent = EnergyModel(weights={}, segment_static_per_cycle=0.0,
                             wakeup_cost_per_32_entries=0.0)
        breakdown = silent.estimate_run(seg, seg_params)
        assert breakdown["total"] == 0.0

    def test_format_breakdown(self, runs):
        seg, seg_params, _, _ = runs
        text = format_breakdown(EnergyModel().estimate_run(seg, seg_params))
        assert "total" in text
        assert "%" in text

    def test_default_weights_cover_key_events(self):
        for event in ("iq.promotions", "mem.accesses", "iq.issued"):
            assert event in DEFAULT_WEIGHTS

    def test_resized_queue_uses_fewer_static_segment_cycles(self):
        fixed_params = configs.segmented(512, max_chains=128)
        gated_params = fixed_params.with_iq(dynamic_resize=True,
                                            resize_interval=100)
        model = EnergyModel()
        fixed = api.run(fixed_params, "gcc", max_instructions=6000)
        gated = api.run(gated_params, "gcc", max_instructions=6000)
        fixed_b = model.estimate(fixed.stats)
        gated_b = model.estimate(gated.stats)
        assert gated_b["static_segments"] < fixed_b["static_segments"]
