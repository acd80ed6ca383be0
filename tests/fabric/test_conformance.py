"""Execution conformance suite.

The ``local-process`` pool must (a) produce bit-identical results to
serial in-process execution, in input order; (b) recover from a dead
worker — the next submission gets a fresh one.
"""

import dataclasses
import time

import pytest

from repro.fabric import (CellError, ExecutionConfig, Executor,
                          LocalProcessBackend, RunSpec, raise_on_errors)
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


def _long_spec():
    # Big enough that the kill always lands mid-simulation.
    return RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                   max_instructions=300_000)


def _small_spec():
    return RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                   max_instructions=800)


class TestWorkerDeathMidCell:
    """Kill the worker while a cell is computing: the handle settles
    with a CellError and the pool recovers — the next submission gets a
    fresh worker."""

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
