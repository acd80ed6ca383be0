"""Entry point of the simulator benchmark (see bench/README.md).

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke]
    python3 bench/run.py --write-golden

From the repository root.  ``--workload``, ``--seed``, ``--seconds`` and
``--trace`` are the command line the BENCHMARK.json format fixes; a run
that omits ``--seconds`` measures for its ``run_seconds``, and
``--smoke`` (tiny budgets) measures for :data:`SMOKE_SECONDS`.  It
rebuilds the compiled kernels from
the tree under test, times five fresh interpreters for ``setup_s``, then
runs each workload in a fresh subprocess (``bench/workload.py``) and
prints every metric by name, unit, median, quartiles and sample count.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.
A machine record with every raw value behind every median is written to
``bench/out/``.  The exit code is 0 only when every cell's simulated
stats matched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
KERNEL_SOURCE = SRC / "repro" / "core" / "segmented" / "_ckernels.c"
WORKLOADS = ("dense_seg", "baseline_models", "sweep_small", "synthetic_mem")

SETUP_PROBES = 5
SMOKE_SECONDS = 1.0
#: Every run must end inside 180 s; child processes are killed past this.
DEADLINE_S = 170.0


def fail(message: str, code: int = 2) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env(compiled: bool) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(OUT / "tmp")
    env.pop("REPRO_KERNELS", None)
    if not compiled:
        env["REPRO_KERNELS"] = "py"
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_kernels(env: Dict[str, str]) -> dict:
    """Rebuild the compiled kernels from this tree, so a stale extension
    is never measured; without the C source the run uses ``py``."""
    if not KERNEL_SOURCE.exists():
        return {"source_sha256": None, "extension_sha256": None}
    proc = subprocess.run(
        [sys.executable, "-m", "repro.core.segmented.build"], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=600)
    built = [line[len("built "):] for line in proc.stdout.splitlines()
             if line.startswith("built ")]
    if proc.returncode != 0 or not built:
        fail("building the kernel extension failed:\n"
             f"{proc.stdout}{proc.stderr}", 3)
    return {"source_sha256": sha256(KERNEL_SOURCE),
            "extension_sha256": sha256(Path(built[-1]))}


def git_head() -> Optional[str]:
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_child(args: List[str], env: Dict[str, str], deadline: float,
              capture: bool = False) -> str:
    """Run ``bench/workload.py args`` in its own process group and wait;
    the whole group is killed if it outlives ``deadline``."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "workload.py")] + args, cwd=ROOT,
        env=env, stdout=subprocess.PIPE if capture else 2,
        start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail(f"workload.py {' '.join(args)} ran past the deadline", 4)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        fail(f"workload.py {' '.join(args)} exited {proc.returncode}", 4)
    return out or ""


def distribution(values: List[float], unit: str,
                 raw: Optional[List[float]] = None) -> dict:
    """Median, quartiles and count of ``values``; ``raw`` is the same
    quantity before host calibration."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    out = {"value": statistics.median(values), "unit": unit, "q1": q1,
           "q3": q3, "n": len(values), "samples": values}
    if raw is not None:
        out["uncalibrated"] = statistics.median(raw)
    return out


def end_to_end(raw: dict, setup: List[dict]) -> Dict[str, dict]:
    reps, warm = raw["reps"], raw["warm"]
    return {
        "kips": distribution(
            [rep["instructions"] / rep["cpu_cal_s"] / 1e3 for rep in reps],
            "kinst/s",
            [rep["instructions"] / rep["cpu_s"] / 1e3 for rep in reps]),
        "cells_per_s": distribution(
            [rep["cells"] / rep["wall_cal_s"] for rep in reps], "cells/s",
            [rep["cells"] / rep["wall_s"] for rep in reps]),
        "cached_cells_per_s": distribution(
            [batch["cells"] / batch["wall_cal_s"] for batch in warm],
            "cells/s", [batch["cells"] / batch["wall_s"] for batch in warm]),
        "setup_s": distribution([probe["cal_s"] for probe in setup], "s",
                                [probe["setup_s"] for probe in setup]),
        "peak_rss_mb": distribution([raw["peak_rss_kb"] / 1024], "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count" if name in ("isa.insts", "pipeline.steps") else "ratio"


def print_metrics(workload: str, metrics: Dict[str, dict]) -> None:
    for name, row in metrics.items():
        line = (f"  {workload:<16} {name:<28} {row['value']:>12.6g} "
                f"{row['unit']:<8}")
        if "n" in row:
            line += (f" median [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}] "
                     f"n={row['n']}")
        if "uncalibrated" in row:
            line += f"  (uncalibrated {row['uncalibrated']:.6g})"
        print(line)


def print_layers(workload: str, raw: dict, listed: Dict[str, dict]) -> None:
    """The traced run's self-time table, and the per-layer metrics that
    only some workloads have."""
    summary = raw["summary"]
    print(f"  {workload}: traced cell time {summary['total_s']:.4f} s = sum "
          f"of layer self times {summary['self_sum_s']:.4f} s "
          f"(exact: {summary['sum_exact']})")
    for layer, row in sorted(summary["layers"].items(),
                             key=lambda kv: -kv[1]["self_s"]):
        calls = ", ".join(f"{method} {count}"
                          for method, count in row["calls"].items())
        print(f"    {layer:<24} {row['self_s']:10.4f} s "
              f"{100 * row['share']:5.1f} %  calls: {calls}")
    for name, value in raw["layers"].items():
        if name not in listed:
            print(f"    {name:<28} {value:.6g} {layer_unit(name)}")
    if summary["unavailable"]:
        print(f"    n/a (compiled types, counted in their callers): "
              f"{', '.join(summary['unavailable'])}")
    if summary["missing"]:
        print(f"    not in this tree: {', '.join(summary['missing'])}")
    if "fabric.overhead_per_cell_s" in raw["layers"]:
        print("    fabric.overhead_per_cell_s assumes the jobs overlap fully")


def measure(workload: str, args, env: Dict[str, str], spec: dict,
            kernels: dict, deadline: float) -> dict:
    """One workload: set-up probes, then its measured subprocess."""
    smoke = ["--smoke"] if args.smoke else []
    setup = []
    if not args.trace:
        for _ in range(2 if args.smoke else SETUP_PROBES):
            out = run_child(["--setup", workload, "--seed", str(args.seed)]
                            + smoke, env, deadline, capture=True)
            setup.append(json.loads(out.strip().splitlines()[-1]))
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}_seed{args.seed}_trace{args.trace}"
    raw_path = OUT / f"raw_{stem}.json"
    child = ["--run", workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace), "--out",
             str(raw_path)] + smoke
    if args.trace:
        child += ["--chrome", str(OUT / f"chrome_{stem}.json")]
    run_child(child, env, deadline)
    raw = json.loads(raw_path.read_text())
    if args.trace:
        metrics = {metric["name"]: {"value": raw["layers"].get(
            metric["name"], 0.0), "unit": metric["unit"]}
            for metric in spec["per_layer"]}
    else:
        metrics = end_to_end(raw, setup)
    record = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "nproc": os.cpu_count(),
              "python": platform.python_version(),
              "platform": platform.platform(),
              "kernels": raw["kernels"], **kernels, "git_head": git_head(),
              "metrics": metrics, "setup_probes": setup, "raw": raw}
    (OUT / f"result_{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulator benchmark; see bench/README.md.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets and a 1 s measurement, for the "
                             "benchmark's own tests")
    parser.add_argument("--write-golden", action="store_true",
                        help="re-record bench/golden_seed0.json at seed 0")
    args = parser.parse_args(argv)
    deadline = time.time() + DEADLINE_S
    # Exit through ``finally`` blocks on SIGTERM too, so that a child
    # process group is never left running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").exists():
        fail(f"no simulator sources under {SRC}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    elif args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    env = child_env(compiled=KERNEL_SOURCE.exists())
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    kernels = build_kernels(env)
    if args.write_golden:
        run_child(["--write-golden"], env, time.time() + 3600)
        return 0

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    metrics: Dict[str, dict] = {}
    attempted = failed = 0
    for workload in workloads:
        record = measure(workload, args, env, spec, kernels, deadline)
        raw = record["raw"]
        attempted += raw["attempted"]
        failed += raw["failed"]
        print(f"bench {workload} seed {args.seed} "
              f"({'traced' if args.trace else 'untraced'}, kernels "
              f"{raw['kernels']}, {record['nproc']} cpus, {raw['cells']} "
              f"cells" + (f", {raw['jobs']} jobs)" if workload ==
                          "sweep_small" else ")"))
        print_metrics(workload, record["metrics"])
        print(f"  {workload:<16} {'fail_rate':<28} {raw['failed']}/"
              f"{raw['attempted']} cells failed")
        for failure in raw["failures"]:
            print(f"    FAILED {failure}")
        if args.trace:
            print_layers(workload, raw, record["metrics"])
            print()
        prefix = "" if args.workload else f"{workload}/"
        for name, row in record["metrics"].items():
            metrics[prefix + name] = {"value": row["value"],
                                      "unit": row["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
