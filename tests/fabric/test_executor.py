"""The Executor driver over the ``local-process`` pool.

``map`` and ``run_specs`` share one submit/retire loop: results come
back in input order, an unpicklable payload falls back to serial,
progress counts retirements, and every worker count computes exactly
what serial execution does.  Per-cell errors and the cache hit count
are pinned in ``tests/harness/test_parallel.py``.
"""

import dataclasses

import pytest

from repro.fabric import (CellError, ExecutionConfig, Executor,
                          LocalProcessBackend, RunSpec, raise_on_errors)
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_callback(self, jobs):
        seen = []
        executor = _executor(jobs, progress=lambda done, total:
                             seen.append((done, total)))
        executor.map(_square, [1, 2, 3, 4])
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

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
        spec = _small_spec()
        serial = _executor(1).run_specs([spec])
        backend = LocalProcessBackend(jobs=2, start_method="spawn")
        try:
            spawned = backend.submit(spec).result(timeout=120)
        finally:
            backend.close()
        assert isinstance(spawned, RunResult), spawned
        assert not backend.fell_back_to_serial
        assert dataclasses.asdict(serial[0]) == dataclasses.asdict(spawned)

    def test_experiment_parallel_matches_serial(self):
        experiment = EXPERIMENTS["headline"]
        report_serial, data_serial = experiment.run(
            workloads=["twolf"], budget_factor=0.01)
        report_parallel, data_parallel = experiment.run(
            workloads=["twolf"], budget_factor=0.01,
            execution=ExecutionConfig(jobs=2))
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
