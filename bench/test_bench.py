"""Self-test of the benchmark.

    PYTHONPATH=src python -m pytest bench/

Not part of the tier-1 suite (``testpaths`` is ``tests``).  The smoke
runs rebuild the compiled kernels, as every benchmark run does.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import cells  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT):
    """(process, parsed last line or None) of one ``run.py --smoke``."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, last


def test_smoke_run_is_correct_and_reports_every_metric():
    start = time.monotonic()
    proc, result = run_bench()
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    expected = {f"{workload_name}/{metric['name']}"
                for workload_name in cells.NAMES
                for metric in SPEC["end_to_end"]}
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_perturbed_golden_value_fails_its_cell(tmp_path):
    runner = workload.Runner("dense_seg", 0, True, tmp_path)
    checker = workload.Checker("dense_seg", 0, runner.cells)
    cell = runner.cells[0].id
    checker.golden[cell]["stats"]["iq.promotions"] += 1
    workload.measure(runner, checker, 0.1, True)
    assert 0 < checker.failed / checker.attempted < 1
    assert all(failure.startswith(f"{cell}: stat iq.promotions")
               for failure in checker.failures)


def test_golden_compare_is_numeric_and_allows_new_stats():
    class Result:
        cycles, instructions = 10, 5
        stats = {"iq.occupancy.peak": 53.0, "new.counter": 1}

    expected = {"cycles": 10, "instructions": 5,
                "stats": {"iq.occupancy.peak": 53}}
    assert cells.mismatch(Result, expected) is None
    expected["stats"]["gone"] = 1
    assert cells.mismatch(Result, expected) == "stat gone missing"


def _wrapped_originals() -> dict:
    """Every attribute the trace may replace, by identity."""
    originals = {}
    for layer, (_level, targets) in spans.LAYERS.items():
        for owners, methods in targets:
            found = owners() if callable(owners) else \
                [spans._owner(owners)]
            for owner in found:
                for method in methods:
                    if inspect.isclass(owner):
                        value = vars(owner).get(method)
                    else:
                        value = getattr(owner, method, None)
                    originals[(id(owner), method)] = value
    return originals


def test_traced_runs_match_golden_and_restore_every_wrapper(tmp_path):
    before = _wrapped_originals()
    calls: dict = {}
    for name in cells.NAMES:
        runner = workload.Runner(name, 0, True, tmp_path)
        checker = workload.Checker(name, 0, runner.cells)
        data = workload.measure_traced(runner, checker, None)
        assert checker.failed == 0, checker.failures
        summary = data["summary"]
        assert summary["sum_exact"], name
        assert summary["missing"] == [], name
        assert data["insts_equal"], name
        assert (summary["calls"]["frontend.cycle:cycle"]
                == summary["calls"]["pipeline.step:step"]
                == data["layers"]["pipeline.steps"]), name
        for key, count in summary["calls"].items():
            calls[key] = calls.get(key, 0) + count
        listed = {metric["name"] for metric in SPEC["per_layer"]}
        assert listed <= set(data["layers"]), name
    assert _wrapped_originals() == before
    assert calls and all(calls.values()), \
        [key for key, count in calls.items() if not count]


def test_synthetic_kernels_follow_the_seed():
    def programs(seed):
        return [cells.synthetic.build_synthetic(profile)
                for profile, _warm in cells.synthetic_profiles(seed, True)]

    assert programs(0) == programs(0)
    first, second = programs(0), programs(1)
    assert all(a != b for a, b in zip(first, second))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = run_bench("--workload", "dense_seg", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
