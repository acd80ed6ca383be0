"""ExecutionConfig and default_jobs."""

import dataclasses
import os

import pytest

from repro import api
from repro.common.errors import ConfigurationError
from repro.fabric import ExecutionConfig, Executor, default_jobs
from repro.fabric import executor as executor_module
from repro.harness import configs
from repro.harness.cache import ResultCache


class TestExecutionConfig:
    def test_resolve_jobs_defaults(self):
        assert ExecutionConfig().resolve_jobs() == 1
        assert ExecutionConfig().resolve_jobs(default=4) == 4
        assert ExecutionConfig(jobs=2).resolve_jobs(default=4) == 2
        assert ExecutionConfig(jobs=0).resolve_jobs() == 1

    def test_only_local_process_is_accepted(self):
        with pytest.raises(ConfigurationError, match="local-process"):
            ExecutionConfig(backend="ssh:x")
        executor = Executor(ExecutionConfig(backend="local-process", jobs=2))
        assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert not executor.fell_back_to_serial

    def test_api_run_execution_config(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = api.run(configs.ideal(32), "twolf", max_instructions=600,
                        execution=ExecutionConfig(cache=cache))
        second = api.run(configs.ideal(32), "twolf", max_instructions=600,
                         execution=ExecutionConfig(cache=cache))
        assert cache.hits == 1
        assert dataclasses.asdict(first) == dataclasses.asdict(second)


class TestDefaultJobs:
    def test_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert default_jobs() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_jobs() == 6

    def test_one_usable_cpu_means_in_process_serial(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                            _no_pool)
        executor = Executor()
        assert executor.map(_double, [21, 4, 5]) == [42, 8, 10]
        assert not executor.fell_back_to_serial


def _double(x):
    return x * 2


def _no_pool(*args, **kwargs):
    raise AssertionError("started a process pool")

