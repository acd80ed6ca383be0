"""Execution conformance suite.

The ``local-process`` pool must (a) produce bit-identical results to
serial in-process execution, in input order; (b) recover from a dead
worker — the next submission gets a fresh pool.
"""

import dataclasses
import multiprocessing
import threading
import time

import pytest

from repro.fabric import (CellError, ExecutionConfig, Executor, RunSpec,
                          raise_on_errors)
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.harness.runner import RunResult

#: Backends the suite conforms.
BACKENDS = ["local-process"]


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


# ----------------------------------------------- mid-cell worker death --
def _wait(predicate, timeout=30.0, message="condition"):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, f"timed out waiting for {message}"
        time.sleep(0.01)


def _long_spec(label="ideal-32"):
    # Seconds of simulation: the kill always lands mid-cell.
    return RunSpec("twolf", configs.ideal(32), config_label=label,
                   scale=40, max_instructions=300_000)


def _small_spec(label="ideal-32"):
    return RunSpec("twolf", configs.ideal(32), config_label=label,
                   max_instructions=800)


class TestWorkerDeathMidCell:
    """Kill the pool's workers while their cells compute: those cells
    become CellErrors, and the pool recovers — the next submission, in
    the same batch and in the next one, gets a fresh pool."""

    def test_local_process_worker_death(self):
        before = {child.pid for child in multiprocessing.active_children()}

        def workers():
            return [child for child in multiprocessing.active_children()
                    if child.pid not in before]

        def kill_workers():
            _wait(workers, message="pool workers")
            time.sleep(0.5)              # let them get into their cells
            for child in workers():
                child.kill()

        killer = threading.Thread(target=kill_workers)
        killer.start()
        # jobs=2 with two long cells in flight; the third is submitted
        # only after they retire, to the pool their deaths broke.
        executor = Executor(ExecutionConfig(jobs=2))
        try:
            first, second, third = executor.run_specs(
                [_long_spec("a"), _long_spec("b"), _small_spec("c")])
        finally:
            killer.join(timeout=60)
        assert not killer.is_alive()
        for dead in (first, second):
            assert isinstance(dead, CellError), dead
            assert "died" in dead.error
        assert isinstance(third, RunResult), third
        retry = executor.run_specs([_small_spec("d"), _small_spec("e")])
        assert all(isinstance(cell, RunResult) for cell in retry), retry
        assert not executor.fell_back_to_serial   # fresh pools ran them
