"""Tests for the parameter-sweep API."""

import csv

import pytest

from repro import api
from repro.fabric import ExecutionConfig
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.harness.sweep import Sweep, SweepGrid, run_grid


@pytest.fixture(scope="module")
def small_grid():
    sweep = Sweep(workloads=["twolf"], max_instructions=2500)
    sweep.add_config("ideal-32", configs.ideal(32))
    sweep.add_config("seg-128", configs.segmented(128, 32, "comb"))
    return sweep.run()


class TestSweep:
    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            Sweep(workloads=["skynet"])

    def test_duplicate_label_rejected(self):
        sweep = Sweep(workloads=["twolf"])
        sweep.add_config("a", configs.ideal(32))
        with pytest.raises(ValueError, match="duplicate"):
            sweep.add_config("a", configs.ideal(64))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="no configurations"):
            Sweep(workloads=["twolf"]).run()

    def test_invalid_config_rejected_at_add(self):
        from repro.common import ConfigurationError, IQParams, ProcessorParams
        bad = ProcessorParams().replace(iq=IQParams(kind="warp"))
        with pytest.raises(ConfigurationError):
            Sweep(workloads=["twolf"]).add_config("bad", bad)

    def test_grid_shape(self, small_grid):
        assert small_grid.workloads == ["twolf"]
        assert small_grid.config_labels == ["ideal-32", "seg-128"]
        assert small_grid.value("twolf", "ideal-32") > 0

    def test_render_contains_cells(self, small_grid):
        text = small_grid.render()
        assert "twolf" in text
        assert "seg-128" in text
        assert "sweep: ipc" in text

    def test_metric_switch(self, small_grid):
        cycles_text = small_grid.render(metric="cycles")
        assert "sweep: cycles" in cycles_text
        stat_value = small_grid.value("twolf", "seg-128")
        small_grid.metric = "iq.dispatched"
        assert small_grid.value("twolf", "seg-128") > 0
        small_grid.metric = "ipc"
        assert small_grid.value("twolf", "seg-128") == stat_value

    def test_unknown_metric_raises(self, small_grid):
        saved = small_grid.metric
        small_grid.metric = "iq.warp_factor"
        try:
            with pytest.raises(KeyError, match="available metrics"):
                small_grid.value("twolf", "ideal-32")
            with pytest.raises(KeyError, match="iq.dispatched"):
                small_grid.value("twolf", "ideal-32")
        finally:
            small_grid.metric = saved

    def test_csv_round_trip(self, small_grid, tmp_path):
        path = tmp_path / "grid.csv"
        small_grid.write_csv(str(path))
        with open(path) as handle:
            rows = list(csv.reader(handle))
        # Headers carry the IQ model kind so mixed-design grids stay
        # unambiguous.
        assert rows[0] == ["benchmark", "ideal-32 [ideal]",
                           "seg-128 [segmented]"]
        assert rows[1][0] == "twolf"
        assert float(rows[1][1]) > 0

    def test_grid_reports_models(self, small_grid):
        assert small_grid.models == {"ideal-32": "ideal",
                                     "seg-128": "segmented"}
        assert small_grid.column_key("ideal-32") == "ideal-32 [ideal]"
        rendered = small_grid.render()
        assert "ideal-32 [ideal]" in rendered
        assert "seg-128 [segmented]" in rendered

    def test_best_config(self, small_grid):
        best = small_grid.best_config("twolf")
        assert best in ("ideal-32", "seg-128")
        assert small_grid.value("twolf", best) == max(
            small_grid.value("twolf", label)
            for label in small_grid.config_labels)


class TestGridProgress:
    """``progress`` hears each cell as it is served, not the whole grid
    up front."""

    CELLS = [("twolf", "ideal-32", configs.ideal(32)),
             ("twolf", "ideal-64", configs.ideal(64))]

    def _run(self, monkeypatch, cache=None):
        events = []
        real_run = api.run

        def logged_run(params, workload, **kwargs):
            result = real_run(params, workload, **kwargs)
            events.append(("returned", kwargs["config_label"]))
            return result

        monkeypatch.setattr(api, "run", logged_run)
        run_grid(self.CELLS, max_instructions=800,
                 execution=ExecutionConfig(jobs=1, cache=cache),
                 progress=lambda line: events.append(("progress", line)))
        return events

    def test_serial_lines_arrive_as_each_cell_starts(self, monkeypatch):
        assert self._run(monkeypatch) == [
            ("progress", "twolf/ideal-32"), ("returned", "ideal-32"),
            ("progress", "twolf/ideal-64"), ("returned", "ideal-64")]

    def test_cache_hits_are_announced_once_each(self, monkeypatch,
                                                tmp_path):
        cache = ResultCache(tmp_path)
        self._run(monkeypatch, cache)
        assert self._run(monkeypatch, cache) == [
            ("progress", "twolf/ideal-32"), ("progress", "twolf/ideal-64")]
