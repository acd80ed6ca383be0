"""Tests for the single run entry point (:func:`repro.api.run`)."""

import json

import pytest

from repro import api
from repro.fabric import ExecutionConfig
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.obs import MetricsCollector, MetricsConfig, RingBufferTracer

PARAMS = configs.segmented(128, 32, "comb")


class TestPlainRun:
    def test_returns_run_result(self):
        result = api.run(PARAMS, "twolf", max_instructions=1500)
        assert result.workload == "twolf"
        assert result.config == "segmented"
        assert result.ipc > 0
        assert result.metrics is None

    def test_config_label(self):
        result = api.run(PARAMS, "twolf", config_label="my-config",
                         max_instructions=1000)
        assert result.config == "my-config"

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            api.run(PARAMS, "doom")


class TestTrace:
    def test_caller_tracer_left_open(self):
        tracer = RingBufferTracer()
        api.run(PARAMS, "twolf", max_instructions=1000, trace=tracer)
        assert not tracer.closed
        assert len(tracer) > 0

    def test_jsonl_path_opens_and_closes_sink(self, tmp_path):
        path = tmp_path / "run.jsonl"
        api.run(PARAMS, "twolf", max_instructions=1000, trace=str(path))
        lines = path.read_text().splitlines()
        assert lines
        assert json.loads(lines[0])["kind"]

    def test_chrome_path_writes_trace_json(self, tmp_path):
        path = tmp_path / "run.json"
        api.run(PARAMS, "twolf", max_instructions=1000, trace=str(path),
                metrics=50)
        data = json.loads(path.read_text())
        assert data["traceEvents"]
        # metrics fold into counter tracks when both are requested
        assert any(e["ph"] == "C" for e in data["traceEvents"])


class TestMetrics:
    def test_interval_int(self):
        result = api.run(PARAMS, "twolf", max_instructions=1500,
                         metrics=50)
        assert result.metrics is not None
        assert result.metrics["interval"] == 50
        assert "ipc" in result.metrics["series"]

    def test_config_object(self):
        result = api.run(PARAMS, "twolf", max_instructions=1500,
                         metrics=MetricsConfig(interval=40))
        assert result.metrics["interval"] == 40

    def test_ready_collector(self):
        collector = MetricsCollector(60)
        result = api.run(PARAMS, "twolf", max_instructions=1500,
                         metrics=collector)
        assert collector.samples > 0
        assert result.metrics["samples"] == collector.samples


class TestCache:
    def test_populates_and_hits(self):
        cache = ResultCache()
        cold = api.run(PARAMS, "twolf", max_instructions=1200, execution=ExecutionConfig(cache=cache))
        files = sorted(cache.directory.glob("*.json"))
        assert len(files) == 1
        warm = api.run(PARAMS, "twolf", max_instructions=1200, execution=ExecutionConfig(cache=cache))
        assert (warm.ipc, warm.cycles) == (cold.ipc, cold.cycles)
        assert sorted(cache.directory.glob("*.json")) == files

    def test_hit_restores_config_label(self):
        cache = ResultCache()
        api.run(PARAMS, "twolf", max_instructions=1200, execution=ExecutionConfig(cache=cache))
        warm = api.run(PARAMS, "twolf", max_instructions=1200,
                       execution=ExecutionConfig(cache=cache), config_label="renamed")
        assert warm.config == "renamed"

    def test_instrumented_runs_skip_cache(self):
        cache = ResultCache()
        api.run(PARAMS, "twolf", max_instructions=1200, execution=ExecutionConfig(cache=cache),
                metrics=100)
        assert not list(cache.directory.glob("*.json"))

    def test_cache_kwarg_is_rejected(self):
        """``execution=`` is the one spelling; the old keyword is gone."""
        with pytest.raises(TypeError):
            api.run(PARAMS, "twolf", max_instructions=1200,
                    cache=ResultCache())


class TestShimRemoved:
    def test_run_workload_is_gone_everywhere(self):
        """The deprecated shim was removed; api.run is the only entry."""
        import repro
        import repro.harness
        import repro.harness.runner
        for module in (repro, repro.harness, repro.harness.runner):
            assert not hasattr(module, "run_workload"), module.__name__
            exported = getattr(module, "__all__", [])
            assert "run_workload" not in exported
