"""ExecutionConfig, the backend registry, default_jobs, and cache merging."""

import dataclasses
import os

import pytest

from repro import api
from repro.common.errors import ConfigurationError
from repro.fabric import (CompletedHandle, ExecutionBackend,
                          ExecutionConfig, LocalProcessBackend,
                          backend_names, create_backend, default_jobs,
                          parse_backend_spec)
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.harness.runner import RunResult


class TestBackendSpec:
    def test_builtins_are_registered(self):
        assert backend_names() == ("local-process", "ssh")

    def test_parse_plain_and_ssh_specs(self):
        assert parse_backend_spec("local-process") == ("local-process", {})
        assert parse_backend_spec("ssh:hosta,hostb") == \
            ("ssh", {"hosts": ["hosta", "hostb"]})
        assert parse_backend_spec("ssh: a , b ") == \
            ("ssh", {"hosts": ["a", "b"]})

    def test_non_ssh_argument_is_rejected(self):
        with pytest.raises(ConfigurationError, match="takes no ':'"):
            parse_backend_spec("local-process:8")

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ConfigurationError, match="local-process"):
            create_backend("teleport")

    def test_create_backend_honours_jobs(self):
        backend = create_backend("local-process", jobs=3)
        try:
            assert isinstance(backend, LocalProcessBackend)
            assert backend.capacity() == 3
        finally:
            backend.close()


class TestExecutionConfig:
    def test_resolve_jobs_defaults(self):
        assert ExecutionConfig().resolve_jobs() == 1
        assert ExecutionConfig().resolve_jobs(default=4) == 4
        assert ExecutionConfig(jobs=2).resolve_jobs(default=4) == 2
        assert ExecutionConfig(jobs=0).resolve_jobs() == 1

    def test_make_backend_passes_instances_through(self):
        class Stub(ExecutionBackend):
            def close(self):
                pass

        stub = Stub()
        assert ExecutionConfig(backend=stub).make_backend() is stub

    def test_make_backend_from_spec_string(self):
        backend = ExecutionConfig(backend="local-process",
                                  jobs=2).make_backend()
        try:
            assert backend.capacity() == 2
        finally:
            backend.close()

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
        backend = create_backend("local-process")
        try:
            assert backend.capacity() == 1
            handle = backend.submit_call(_double, 21, "double")
            assert isinstance(handle, CompletedHandle)
            assert handle.result() == 42
            assert not backend.fell_back_to_serial
        finally:
            backend.close()


def _double(x):
    return x * 2


def _result(workload="twolf", config="ideal-32", ipc=1.25):
    return RunResult(workload=workload, config=config, ipc=ipc,
                     cycles=800, instructions=1000,
                     stats={"iq.occupancy": 11.5, "commit.total": 1000})


class TestCacheMerge:
    def test_merge_adopts_new_entries_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _result()
        assert cache.merge([("k1", result)]) == 1
        assert cache.merge([("k1", result), ("k2", _result(ipc=2.0))]) == 1
        hit = cache.get("k1")
        assert hit is not None and hit.ipc == result.ipc
        assert hit.stats == result.stats

    def test_merge_on_disabled_cache_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        assert cache.merge([("k1", _result())]) == 0
        assert cache.get("k1") is None
