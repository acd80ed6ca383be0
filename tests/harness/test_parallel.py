"""Parallel execution as the harness relies on it.

A failing cell is a ``CellError`` in its own slot while its neighbours
still compute, and a repeated spec is a cache hit.
"""

import dataclasses

from repro.fabric import CellError, ExecutionConfig, Executor, RunSpec
from repro.harness import configs
from repro.harness.cache import ResultCache


def _boom(x):
    raise ValueError(f"boom {x}")


def _flaky(x):
    if x == 0:
        raise RuntimeError("zero cell")
    return x * x


def _executor(jobs, **kwargs) -> Executor:
    return Executor(ExecutionConfig(jobs=jobs, **kwargs))


class TestMap:
    def test_worker_exception_surfaces_per_cell(self):
        out = _executor(2).map(_boom, [1, 2], labels=["a", "b"])
        assert all(isinstance(cell, CellError) for cell in out)
        assert "boom 1" in out[0].error
        assert out[0].label == "a"
        assert "ValueError" in out[0].error

    def test_mixed_success_and_failure_keeps_positions(self):
        out = _executor(2).map(_flaky, [1, 0, 3], labels=["a", "b", "c"])
        assert out[0] == 1 and out[2] == 9
        assert isinstance(out[1], CellError)
        assert out[1].label == "b"
        assert "RuntimeError: zero cell" in out[1].error


class TestRunSpecsCaching:
    def test_second_run_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                       max_instructions=800)
        first = _executor(1, cache=cache).run_specs([spec])
        assert cache.hits == 0 and cache.misses == 1
        second = _executor(1, cache=cache).run_specs([spec])
        assert cache.hits == 1
        assert dataclasses.asdict(first[0]) == dataclasses.asdict(second[0])

