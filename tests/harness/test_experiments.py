"""Tests for the programmatic experiment API."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.harness.experiments import (EXPERIMENTS, Experiment,
                                       ExperimentRunner, save_data)


class TestExperimentRunner:
    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown workloads"):
            ExperimentRunner(["swim", "crysis"])

    def test_runs_are_cached(self):
        calls = []
        runner = ExperimentRunner(["twolf"], budget_factor=0.2,
                                  progress=calls.append)
        first = runner.ideal("twolf", 32)
        second = runner.ideal("twolf", 32)
        assert first is second
        assert len(calls) == 1

    def test_budget_factor_scales_instructions(self):
        small = ExperimentRunner(["twolf"], budget_factor=0.2)
        large = ExperimentRunner(["twolf"], budget_factor=0.5)
        a = small.ideal("twolf", 32)
        b = large.ideal("twolf", 32)
        assert b.instructions > a.instructions


class TestExperiments:
    def test_registry_covers_the_paper(self):
        assert set(EXPERIMENTS) == {"table2", "figure2", "figure3",
                                    "headline"}
        for experiment in EXPERIMENTS.values():
            assert isinstance(experiment, Experiment)
            assert experiment.title

    def test_headline_runs_on_subset(self):
        report, data = EXPERIMENTS["headline"].run(
            workloads=["twolf"], budget_factor=0.2)
        assert "twolf" in report
        assert "gain_over_32" in data["twolf"]

    def test_table2_shape(self):
        report, data = EXPERIMENTS["table2"].run(
            workloads=["twolf"], budget_factor=0.2)
        assert "Table 2" in report
        assert set(data["twolf"]) == {"base", "hmp", "lrp", "comb"}
        for variant in data["twolf"].values():
            assert variant["peak"] >= variant["avg"]

    def test_figure2_values_are_ratios(self):
        report, data = EXPERIMENTS["figure2"].run(
            workloads=["twolf"], budget_factor=0.2)
        assert "Figure 2" in report
        for setting in data["twolf"].values():
            for value in setting.values():
                assert 0.0 <= value <= 1.5

    def test_save_data_round_trips(self, tmp_path):
        path = tmp_path / "data.json"
        save_data({"a": {"b": 1.5}}, str(path))
        assert json.loads(path.read_text()) == {"a": {"b": 1.5}}


class TestSampledExperiments:
    def test_headline_runs_sampled(self):
        from repro.sampling import SamplingConfig
        sampling = SamplingConfig(num_windows=4, warmup_instructions=200,
                                  measure_instructions=300)
        report, data = EXPERIMENTS["headline"].run(
            workloads=["twolf"], sampling=sampling, sampling_scale=2)
        assert "twolf" in report
        assert data["twolf"]["gain_over_32"] > 0
        assert data["twolf"]["fraction_of_ideal"] > 0

    def test_sampled_budget_scales_with_sampling_scale(self):
        from repro.sampling import SamplingConfig
        sampling = SamplingConfig(num_windows=4)
        plain = ExperimentRunner(["twolf"])
        sampled = ExperimentRunner(["twolf"], sampling=sampling,
                                   sampling_scale=3)
        assert sampled._budget("twolf") == 3 * plain._budget("twolf")


class TestConflictingModes:
    """``metrics=`` needs full-detail cells: a sampled or surrogate-pruned
    experiment refuses it, as ``Sweep.run`` does, rather than dropping
    it."""

    def test_sampling_with_metrics_raises(self):
        from repro.sampling import SamplingConfig
        with pytest.raises(ConfigurationError, match="metrics="):
            EXPERIMENTS["headline"].run(
                workloads=["twolf"], sampling=SamplingConfig(num_windows=4),
                metrics=100)

    def test_surrogate_with_metrics_raises(self):
        with pytest.raises(ConfigurationError, match="surrogate"):
            EXPERIMENTS["headline"].run(workloads=["twolf"],
                                        surrogate=True, metrics=100)
