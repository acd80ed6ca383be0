"""The Executor driver over the ``local-process`` pool.

``map`` and ``run_specs`` share one submit/retire loop: results come
back in input order, at most ``jobs`` cells are in flight, a batch
with one cold cell starts no pool, an unpicklable payload or a pool
that cannot start falls back to serial, and every worker count
computes exactly what serial execution does.
Per-cell errors and the cache hit count are pinned in
``tests/harness/test_parallel.py``.
"""

import dataclasses
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.fabric import (CellError, ExecutionConfig, Executor, RunSpec,
                          raise_on_errors)
from repro.fabric import executor as executor_module
from repro.fabric.cells import _execute_spec, _guarded_call
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.harness.experiments import EXPERIMENTS
from repro.harness.runner import RunResult
from repro.harness.sweep import Sweep


def _square(x):
    return x * x


def _executor(jobs, **kwargs) -> Executor:
    return Executor(ExecutionConfig(jobs=jobs, **kwargs))


def _small_spec(label="ideal-32") -> RunSpec:
    return RunSpec("twolf", configs.ideal(32), config_label=label,
                   max_instructions=800)


def _tiny_sweep() -> Sweep:
    sweep = Sweep(workloads=["twolf", "swim"], max_instructions=1500)
    sweep.add_config("ideal-32", configs.ideal(32))
    sweep.add_config("seg-64",
                     configs.segmented(64, 16, "comb", segment_size=16))
    return sweep


class TestMap:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_preserves_order(self, jobs):
        executor = _executor(jobs)
        assert executor.map(_square, list(range(8))) == \
            [x * x for x in range(8)]
        assert not executor.fell_back_to_serial

    def test_unpicklable_payload_falls_back_to_serial(self):
        executor = _executor(4)
        assert executor.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert executor.fell_back_to_serial

    def test_pool_that_cannot_start_falls_back_to_serial(self,
                                                         monkeypatch):
        def no_processes(*args, **kwargs):
            raise OSError("no processes left")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                            no_processes)
        executor = _executor(2)
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert executor.fell_back_to_serial

    def test_raise_on_errors_summarizes(self):
        cells = [1, CellError("a/b", "ValueError: nope"), 3]
        with pytest.raises(RuntimeError, match="1 of 3 sweep cells"):
            raise_on_errors(cells, "sweep")
        raise_on_errors([1, 2, 3], "sweep")    # no error: no raise


class TestDeterminism:
    """The same cells, serial and pooled: bit-identical results."""

    def test_sweep_parallel_matches_serial_exactly(self):
        serial = _tiny_sweep().run()
        parallel = _tiny_sweep().run(execution=ExecutionConfig(jobs=4))
        for workload in serial.workloads:
            for label in serial.config_labels:
                a = serial.results[workload][label]
                b = parallel.results[workload][label]
                assert dataclasses.asdict(a) == dataclasses.asdict(b), \
                    f"{workload}/{label} diverged between serial and jobs=4"

    def test_spawn_start_method_matches_serial(self):
        """The worker entry point survives the ``spawn`` start method
        (the macOS and Windows default) and computes what serial does."""
        spec = _small_spec()
        serial = _executor(1).run_specs([spec])
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            spawned = pool.submit(_guarded_call,
                                  (_execute_spec, spec, spec.label)
                                  ).result(timeout=120)
        assert isinstance(spawned, RunResult), spawned
        assert dataclasses.asdict(serial[0]) == dataclasses.asdict(spawned)

    def test_experiment_parallel_matches_serial(self):
        experiment = EXPERIMENTS["headline"]
        report_serial, data_serial = experiment.run(
            workloads=["twolf"], budget_factor=0.01)
        report_parallel, data_parallel = experiment.run(
            workloads=["twolf"], budget_factor=0.01,
            execution=ExecutionConfig(jobs=4))
        assert report_serial == report_parallel
        assert data_serial == data_parallel


class TestRunSpecsCaching:
    def test_hit_restores_requested_label(self, tmp_path):
        cache = ResultCache(tmp_path)
        _executor(1, cache=cache).run_specs([_small_spec()])
        cells = _executor(1, cache=cache).run_specs(
            [_small_spec("other-name")])
        assert cache.hits == 1
        assert isinstance(cells[0], RunResult)
        assert cells[0].config == "other-name"

    def test_one_cold_cell_starts_no_pool(self, tmp_path, monkeypatch):
        """The worker count is clamped to the cold cells: a cached cell
        plus one cold cell at jobs=4 run in-process."""
        cache = ResultCache(tmp_path)
        _executor(1, cache=cache).run_specs([_small_spec()])
        monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                            _no_pool)
        executor = _executor(4, cache=cache)
        cold = RunSpec("swim", configs.ideal(32), config_label="ideal-32",
                       max_instructions=800)
        hit, ran = executor.run_specs([_small_spec(), cold])
        assert isinstance(hit, RunResult) and isinstance(ran, RunResult)
        assert cache.hits == 1
        assert not executor.fell_back_to_serial


class TestInFlight:
    def test_running_cells_never_exceed_jobs(self, tmp_path):
        """A journaled ``running`` cell is one a worker holds: at most
        ``jobs`` cells are between ``running`` and ``done`` at once."""
        cache = ResultCache(tmp_path / "cache")
        journal = tmp_path / "sweep.jsonl"
        specs = [RunSpec("twolf", configs.ideal(size),
                         config_label=f"ideal-{size}", max_instructions=800)
                 for size in (16, 32, 48, 64, 96)]
        cells = _executor(2, cache=cache, journal=journal).run_specs(specs)
        raise_on_errors(cells, "in-flight")
        running = peak = 0
        for line in journal.read_text().splitlines():
            state = json.loads(line)["state"]
            if state == "running":
                running += 1
                peak = max(peak, running)
            elif state in ("done", "failed"):
                running -= 1
        assert running == 0
        assert peak == 2


def _no_pool(*args, **kwargs):
    raise AssertionError("started a process pool")
