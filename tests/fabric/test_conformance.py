"""Execution conformance suite.

The ``local-process`` pool must (a) produce bit-identical results to
serial in-process execution, in input order; (b) recover from a dead
worker — the next submission gets a fresh one.  A detached task (the
job service's unit of work) must honour the task contract: results and
heartbeats come back, a raising task is a ``CellError``, cancel is a
hard kill, worker death settles the handle and never hangs.
"""

import dataclasses
import time

import pytest

from repro.fabric import (CellError, ExecutionConfig, Executor,
                          LocalProcessBackend, RunSpec, raise_on_errors)
from repro.fabric.local import submit_detached
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.harness.runner import RunResult

#: Backends the suite conforms.
BACKENDS = ["local-process"]

#: How each backend starts a detached task (the job service's unit).
TASK_SUBMITTERS = {"local-process": submit_detached}


def _grid_specs():
    cells = [("twolf", "ideal-32", configs.ideal(32)),
             ("twolf", "seg-64",
              configs.segmented(64, 16, "comb", segment_size=16)),
             ("swim", "ideal-32", configs.ideal(32)),
             ("swim", "seg-64",
              configs.segmented(64, 16, "comb", segment_size=16))]
    return [RunSpec(workload, params, config_label=label,
                    max_instructions=1200)
            for workload, label, params in cells]


@pytest.fixture(scope="module")
def serial_results():
    """The reference: the same grid, serially, in this process."""
    results = Executor(ExecutionConfig(jobs=1)).run_specs(_grid_specs())
    raise_on_errors(results, "serial reference")
    return results


# ------------------------------------------------------------ identity --
@pytest.mark.parametrize("backend", BACKENDS)
class TestBitIdentity:
    def test_matches_serial_in_input_order(self, backend, serial_results):
        specs = _grid_specs()
        executor = Executor(ExecutionConfig(backend=backend, jobs=2))
        results = executor.run_specs(specs)
        raise_on_errors(results, backend)
        for spec, got, want in zip(specs, results, serial_results):
            assert got.workload == spec.workload
            assert got.config == spec.config_label
            assert dataclasses.asdict(got) == dataclasses.asdict(want), \
                f"{spec.label} diverged between serial and {backend}"

    def test_cache_round_trip(self, backend, tmp_path):
        """An executed cell lands in the cache; the rerun is a hit that
        needs no worker at all."""
        cache = ResultCache(tmp_path / "cache")
        spec = _grid_specs()[0]
        execution = ExecutionConfig(backend=backend, jobs=1, cache=cache)
        [first] = Executor(execution).run_specs([spec])
        assert isinstance(first, RunResult), first
        [second] = Executor(ExecutionConfig(jobs=1,
                                            cache=cache)).run_specs([spec])
        assert cache.hits == 1
        assert dataclasses.asdict(first) == dataclasses.asdict(second)


# ------------------------------------------------------- task contract --
def _emit_and_return(item, emit):
    emit({"step": 1})
    return item * 10


def _fail_task(item, emit):
    raise RuntimeError(f"kaput {item}")


def _sleep_forever(item, emit):
    emit({"started": True})
    while True:
        time.sleep(0.05)


def _die_silently(item, emit):
    import os
    os._exit(3)


def _big_result(item, emit):
    return "x" * item


def _wait(predicate, timeout=30.0, message="condition"):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, f"timed out waiting for {message}"
        time.sleep(0.01)


@pytest.mark.parametrize("backend", BACKENDS)
class TestTaskContract:
    def test_result_and_ticks(self, backend):
        handle = TASK_SUBMITTERS[backend](_emit_and_return, 7, label="x")
        assert handle.result(timeout=30) == 70
        assert handle.poll()
        assert handle.ticks() == [{"step": 1}]
        assert handle.ticks() == []         # drained

    def test_exception_is_a_cell_error(self, backend):
        handle = TASK_SUBMITTERS[backend](_fail_task, 3, label="bad")
        result = handle.result(timeout=30)
        assert isinstance(result, CellError)
        assert "kaput 3" in result.error
        assert not handle.cancelled

    def test_cancel_is_a_hard_kill(self, backend):
        handle = TASK_SUBMITTERS[backend](_sleep_forever, 0, label="spin")
        # Wait until the worker proves it started, then kill it.
        _wait(handle.ticks, message="heartbeat from worker")
        assert handle.cancel()
        result = handle.result(timeout=10)
        assert isinstance(result, CellError)
        assert result.error == "cancelled"
        assert handle.cancelled
        assert not handle.cancel()      # idempotent once settled

    def test_worker_death_is_reported_not_hung(self, backend):
        handle = TASK_SUBMITTERS[backend](_die_silently, 0, label="dead")
        _wait(handle.poll, message="death report")
        result = handle.result()
        assert isinstance(result, CellError)
        assert "died" in result.error

    def test_result_larger_than_the_pipe_buffer(self, backend):
        """The worker blocks sending a result bigger than the pipe
        buffer until the parent reads it, so ``result()`` must read
        while it waits instead of waiting for the worker to exit."""
        handle = TASK_SUBMITTERS[backend](_big_result, 1_000_000, label="big")
        try:
            start = time.monotonic()
            value = handle.result(timeout=30)
            assert time.monotonic() - start < 5.0
            assert value == "x" * 1_000_000
        finally:
            handle.close()


# ----------------------------------------------- mid-cell worker death --
def _long_spec():
    # Big enough that the kill always lands mid-simulation.
    return RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                   max_instructions=300_000)


def _small_spec():
    return RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                   max_instructions=800)


class TestWorkerDeathMidCell:
    """Kill the worker while a *cell* (not a task) is computing: the
    handle settles with a CellError and the pool recovers — the next
    submission gets a fresh worker."""

    def test_local_process_worker_death(self):
        # jobs=2: with one worker the cell would run in-process.
        back = LocalProcessBackend(jobs=2)
        try:
            handle = back.submit(_long_spec())
            _wait(lambda: back._pool._processes, message="pool workers")
            for process in list(back._pool._processes.values()):
                process.kill()
            _wait(handle.poll, message="pool death report")
            result = handle.result()
            assert isinstance(result, CellError)
            assert "died" in result.error
            retry = back.submit(_small_spec()).result(timeout=120)
            assert isinstance(retry, RunResult), retry
            assert not back.fell_back_to_serial   # a fresh pool ran it
        finally:
            back.close()
