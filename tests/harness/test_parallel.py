"""Parallel execution as the harness relies on it.

A failing cell is a ``CellError`` in its own slot while its neighbours
still compute, a repeated spec is a cache hit, and a detached task (the
job service's unit of work) can be hard-cancelled and never hangs when
its worker dies.
"""

import dataclasses
import time

from repro.fabric import CellError, ExecutionConfig, Executor, RunSpec
from repro.fabric.local import submit_detached
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


def _sleep_forever(item, emit):
    emit({"started": True})
    while True:
        time.sleep(0.05)


def _die_silently(item, emit):
    import os
    os._exit(3)


class TestSubmitHandles:
    def test_cancel_terminates_a_running_task(self):
        handle = submit_detached(_sleep_forever, 0, label="spin")
        # Wait until the worker proves it started, then kill it.
        deadline = time.time() + 30
        while not handle.ticks():
            assert time.time() < deadline, "no heartbeat from worker"
            time.sleep(0.01)
        assert handle.cancel()
        result = handle.result(timeout=5)
        assert isinstance(result, CellError) and result.error == "cancelled"
        assert handle.cancelled
        assert not handle.cancel()       # idempotent once finished

    def test_worker_death_is_reported_not_hung(self):
        handle = submit_detached(_die_silently, 0, label="dead")
        deadline = time.time() + 30
        while not handle.poll():
            assert time.time() < deadline, "timed out waiting for death report"
            time.sleep(0.01)
        result = handle.result()
        assert isinstance(result, CellError)
        assert "died" in result.error
