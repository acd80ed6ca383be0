"""Tests for the programmatic experiment API."""

import json

import pytest

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


class TestPlannedBatch:
    """Every experiment runs its whole grid as one ``run_grid`` batch,
    under the caller's ``ExecutionConfig`` (journal included)."""

    #: Distinct cells each builder requests for one workload.
    CELLS = {"table2": 4, "figure2": 13, "figure3": 19, "headline": 3}

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_one_batch_covers_every_cell(self, name, monkeypatch):
        from repro.fabric import ExecutionConfig
        from repro.harness import experiments
        batches = []
        real_run_grid = experiments.run_grid

        def spy(cells, **kwargs):
            batches.append([(workload, key) for workload, key, _ in cells])
            return real_run_grid(cells, **kwargs)

        monkeypatch.setattr(experiments, "run_grid", spy)
        EXPERIMENTS[name].run(workloads=["twolf"], budget_factor=0.01,
                              execution=ExecutionConfig(jobs=2))
        assert len(batches) == 1, [len(batch) for batch in batches]
        assert len(set(batches[0])) == len(batches[0]) == self.CELLS[name]

    def test_journal_records_every_cell(self, tmp_path):
        from repro.fabric import ExecutionConfig, SweepJournal
        from repro.harness.cache import ResultCache
        path = tmp_path / "journal.jsonl"
        EXPERIMENTS["headline"].run(
            workloads=["twolf"], budget_factor=0.01,
            execution=ExecutionConfig(cache=ResultCache(tmp_path / "cache"),
                                      journal=path))
        assert path.exists()
        assert SweepJournal(path).counts() == {"done": self.CELLS["headline"]}
