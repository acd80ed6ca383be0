"""Simulator-throughput benchmark behind ``python -m repro bench``.

Four measurements, one JSON artifact:

* **Serial throughput** — CPU-time simulations per (workload,
  configuration) pair (best of :data:`SERIAL_REPEATS` timed runs;
  ``time.process_time`` so host scheduling noise cannot masquerade as
  simulator changes) and report kilo-cycles/sec and kilo-insts/sec,
  the simulator's native speed metric.  This is the number the hot-path
  optimisations move.  Each row also carries the run's energy-proxy
  breakdown (:mod:`repro.harness.energy`) so the power trade-off the
  paper's section 7 raises is tracked alongside speed.
* **Sweep scaling** — wall-clock one workload x configuration grid three
  ways: serially with a cold cache, fanned out over ``jobs`` workers with
  a cold cache (the process-pool speedup), and again against the
  now-warm cache (the cache speedup).
* **Sampling speedup** — wall-clock one sampled run
  (:mod:`repro.sampling`) against the equivalent full-detail run and
  report the wall-clock and detailed-cycle ratios.
* **Metrics + tracing overhead** — one instrumented run embedding the
  :mod:`repro.obs` windowed time-series means (pipeline balance PR over
  PR), plus the cost of tracing the same run into a counting sink.

The artifact is written as ``BENCH_<date>.json`` (repo root by
convention) so the performance trajectory is tracked PR over PR;
``--compare`` diffs against an older artifact and reports per-config
throughput and energy-per-instruction changes.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.harness.energy import EnergyModel, energy_per_instruction
from repro.harness.sweep import Sweep

#: Schema 9 drops the ``fabric`` section, which compared per-cell
#: dispatch overhead between local execution backends; one local
#: backend is left.
#: Schema 8 adds the ``profile`` section: a per-stage inclusive-time
#: breakdown (dispatch / fetch / issue / commit / IQ-engine) of one
#: profiled serial cell, so the Amdahl split the pipeline-kernel work
#: targets is tracked across artifacts, not just eyeballed from
#: ``--profile`` output.  ``--compare`` against pre-schema-8 artifacts
#: degrades via ``missing_sections`` as before.
#: Schema 7 records the execution backend the sweep section ran on
#: (``sweep.backend``; see docs/fabric.md).  ``--compare``
#: against pre-schema-7 artifacts degrades via ``missing_sections`` as
#: before.  Schema 6 adds a per-row ``kernels`` field (the segmented-IQ
#: kernel backend active for the run: ``"py"`` or ``"compiled"``; see
#: docs/performance.md) and ``--compare`` warns on backend-mismatched
#: rows instead of silently diffing them.  Schema 5 annotates every
#: serial row key with its IQ model kind
#: (``"swim/seg-512-128ch [segmented]"``), adds a per-row ``model``
#: field and a sweep-section ``models`` map so multi-model grids are
#: unambiguous, and embeds the analytical-surrogate validation section
#: (predicted vs simulated IPC; docs/models.md).  Schema 4 added
#: per-row ``skip_ratio``/``skip_windows`` (docs/performance.md).
SCHEMA_VERSION = 9

#: Serial-throughput configurations: the paper's headline design points.
SERIAL_CONFIGS: List[Tuple[str, object]] = [
    ("seg-512-128ch", lambda: configs.segmented(512, 128, "comb")),
    ("seg-128-64ch", lambda: configs.segmented(128, 64, "comb")),
    ("ideal-128", lambda: configs.ideal(128)),
    ("presched-24", lambda: configs.prescheduled(24)),
    ("dtrack-128", lambda: configs.delay_tracking(128)),
]

#: Sweep grid: 4 workloads x 7 configurations (Fig. 2/3 shaped).
SWEEP_WORKLOADS = ["swim", "twolf", "gcc", "mgrid"]
SWEEP_CONFIGS: List[Tuple[str, object]] = [
    ("ideal-64", lambda: configs.ideal(64)),
    ("ideal-256", lambda: configs.ideal(256)),
    ("seg-128", lambda: configs.segmented(128, 64, "comb")),
    ("seg-256", lambda: configs.segmented(256, 128, "comb")),
    ("seg-512", lambda: configs.segmented(512, 128, "comb")),
    ("fifo-64", lambda: configs.fifo(64)),
    ("dtrack-128", lambda: configs.delay_tracking(128)),
]

QUICK_SERIAL = SERIAL_CONFIGS[:2]
QUICK_SWEEP_WORKLOADS = SWEEP_WORKLOADS[:2]
QUICK_SWEEP_CONFIGS = SWEEP_CONFIGS[:3]


def measure_calibration(repeats: int = 3) -> float:
    """CPU seconds for a fixed pure-Python spin (best of ``repeats``).

    Virtualized hosts deliver epoch-scale speed swings (steal time,
    frequency scaling) that even ``process_time`` cannot factor out:
    the same deterministic work costs a different number of CPU seconds
    in different minutes.  Recording a constant-work reference alongside
    every artifact lets ``--compare`` distinguish "the simulator got
    faster" from "the host got faster" — the calibration ratio is the
    host's contribution.
    """
    best = None
    for _ in range(max(1, repeats)):
        start = time.process_time()
        total = 0
        for i in range(2_000_000):
            total += i ^ (i >> 3)
        elapsed = time.process_time() - start
        if best is None or elapsed < best:
            best = elapsed
    return round(best, 4)


def _geomean(values: Sequence[float]) -> float:
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


#: Timed repetitions per serial cell; the best CPU time is reported.
#: A single wall-clock shot is at the mercy of whatever else the host
#: runs during that cell — on shared single-CPU containers the observed
#: noise is ±30%, which swamps real hot-path deltas.  The minimum over
#: a few process-time repeats is the standard estimator for "how fast
#: does this code go".
SERIAL_REPEATS = 3


def measure_serial(workloads: Sequence[str], serial_configs,
                   max_instructions: int, repeats: int = SERIAL_REPEATS,
                   progress=None) -> Dict[str, Dict[str, float]]:
    """Time serial simulations per (workload, config) pair, best-of-N
    CPU time.

    Each row carries throughput numbers plus the energy-proxy breakdown
    of the run (relative units; see :mod:`repro.harness.energy`).
    Repeats bypass the result cache (a cache hit would time a JSON
    read, not the simulator); runs are deterministic, so every repeat
    produces the identical result and only the clock varies.
    """
    from repro.core.segmented.kernels import backend as kernel_backend
    model = EnergyModel()
    out: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        for label, factory in serial_configs:
            if progress is not None:
                progress(f"serial {workload}/{label}")
            params = factory()
            seconds = None
            for _ in range(max(1, repeats)):
                # CPU time, not wall: on shared hosts the process gets
                # descheduled for arbitrary stretches, and those gaps
                # say nothing about simulator speed.
                start = time.process_time()
                result = api.run(params, workload, config_label=label,
                                 max_instructions=max_instructions)
                elapsed = time.process_time() - start
                if seconds is None or elapsed < seconds:
                    seconds = elapsed
            breakdown = model.estimate_run(result, params)
            skipped = result.stats.get("skip.cycles_skipped", 0)
            out[f"{workload}/{label} [{params.iq.kind}]"] = {
                "model": params.iq.kind,
                "kernels": kernel_backend(),
                "cycles": result.cycles,
                "instructions": result.instructions,
                "seconds": round(seconds, 4),
                "kcycles_per_sec": round(result.cycles / seconds / 1e3, 2),
                "kinsts_per_sec": round(
                    result.instructions / seconds / 1e3, 2),
                "skip_ratio": round(skipped / result.cycles, 4)
                if result.cycles else 0.0,
                "skip_windows": int(result.stats.get("skip.windows", 0)),
                "energy": {key: round(value, 1)
                           for key, value in breakdown.items()},
                "energy_per_instruction": round(
                    energy_per_instruction(breakdown, result.instructions),
                    4),
            }
    return out


def _build_sweep(workloads, sweep_configs, max_instructions) -> Sweep:
    sweep = Sweep(workloads=list(workloads),
                  max_instructions=max_instructions)
    for label, factory in sweep_configs:
        sweep.add_config(label, factory())
    return sweep


def measure_sweep(workloads, sweep_configs, max_instructions: int,
                  jobs: int, backend: str = "local-process",
                  progress=None) -> Dict[str, object]:
    """Wall-clock the grid cold-serial, cold-parallel, and cache-warm."""
    from repro.fabric import ExecutionConfig
    cells = len(workloads) * len(sweep_configs)

    if progress is not None:
        progress(f"sweep: {cells} cells serial (cold)")
    start = time.perf_counter()
    _build_sweep(workloads, sweep_configs, max_instructions).run()
    serial_seconds = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = ResultCache(tmp)
        if progress is not None:
            progress(f"sweep: {cells} cells jobs={jobs} ({backend}, cold)")
        start = time.perf_counter()
        _build_sweep(workloads, sweep_configs, max_instructions).run(
            execution=ExecutionConfig(backend=backend, jobs=jobs,
                                      cache=cache))
        parallel_seconds = time.perf_counter() - start

        if progress is not None:
            progress(f"sweep: {cells} cells cached re-run")
        start = time.perf_counter()
        _build_sweep(workloads, sweep_configs, max_instructions).run(
            execution=ExecutionConfig(jobs=1, cache=cache))
        cached_seconds = time.perf_counter() - start
        cache_hits = cache.hits

    return {
        "workloads": list(workloads),
        "configs": [label for label, _ in sweep_configs],
        "models": {label: factory().iq.kind
                   for label, factory in sweep_configs},
        "cells": cells,
        "max_instructions": max_instructions,
        "jobs": jobs,
        "backend": backend,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "parallel_speedup": round(serial_seconds / parallel_seconds, 3)
        if parallel_seconds else 0.0,
        "cached_seconds": round(cached_seconds, 3),
        "cached_fraction_of_cold": round(
            cached_seconds / serial_seconds, 4) if serial_seconds else 0.0,
        "cache_hits": cache_hits,
    }


def measure_sampling(workload: str = "twolf", *,
                     quick: bool = False,
                     progress=None) -> Dict[str, object]:
    """Wall-clock one sampled run against its full-detail equivalent."""
    from repro.sampling import SamplingConfig, sample_workload

    params = configs.segmented(128, 64, "comb")
    scale = 2 if quick else 4
    sampling = (SamplingConfig(num_windows=6, warmup_instructions=200,
                               measure_instructions=300) if quick else
                SamplingConfig(num_windows=8, warmup_instructions=500,
                               measure_instructions=500))
    if progress is not None:
        progress(f"sampled {workload} (scale {scale})")
    start = time.perf_counter()
    report = sample_workload(workload, params, sampling, scale=scale)
    sampled_seconds = time.perf_counter() - start

    if progress is not None:
        progress(f"full-detail {workload} (scale {scale})")
    start = time.perf_counter()
    full = api.run(params, workload, scale=scale)
    full_seconds = time.perf_counter() - start
    return {
        "workload": workload,
        "scale": scale,
        "num_windows": sampling.num_windows,
        "sampled_seconds": round(sampled_seconds, 3),
        "full_seconds": round(full_seconds, 3),
        "wall_speedup": round(full_seconds / sampled_seconds, 3)
        if sampled_seconds else 0.0,
        "sampled_ipc": round(report.ipc_estimate, 4),
        "full_ipc": round(full.ipc, 4),
        "detailed_cycles": report.detailed_cycles,
        "full_cycles": full.cycles,
        "detail_cycle_ratio": round(full.cycles / report.detailed_cycles, 2)
        if report.detailed_cycles else 0.0,
    }


def measure_metrics(workload: str, max_instructions: int,
                    progress=None) -> Dict[str, object]:
    """One instrumented run: windowed time series from :mod:`repro.obs`.

    The bench embeds the summarized series (mean windowed IPC,
    issue-slot utilization, occupancies, active chains) so pipeline
    balance is tracked PR over PR alongside raw throughput, plus the
    tracing overhead of the same run with a counting sink attached.
    """
    from repro.obs import MetricsConfig, Tracer, summarize

    class _CountingSink(Tracer):
        def _record(self, event) -> None:
            pass

    params = configs.segmented(128, 64, "comb")
    if progress is not None:
        progress(f"metrics {workload} (instrumented run)")
    result = api.run(params, workload, max_instructions=max_instructions,
                     metrics=MetricsConfig(interval=100))
    start = time.perf_counter()
    api.run(params, workload, max_instructions=max_instructions)
    plain_seconds = time.perf_counter() - start
    sink = _CountingSink()
    start = time.perf_counter()
    api.run(params, workload, max_instructions=max_instructions,
            trace=sink)
    traced_seconds = time.perf_counter() - start
    report = result.metrics or {}
    return {
        "workload": workload,
        "config": "seg-128-64ch",
        "interval": report.get("interval"),
        "samples": report.get("samples"),
        "series_means": summarize(report),
        "events_emitted": sink.emitted,
        "plain_seconds": round(plain_seconds, 3),
        "traced_seconds": round(traced_seconds, 3),
        "tracing_overhead": round(traced_seconds / plain_seconds - 1.0, 4)
        if plain_seconds else 0.0,
    }


#: Sections a BENCH_*.json must carry for ``--compare`` to diff it.
_COMPARE_SECTIONS = ("schema", "serial")


def _bare_key(key: str) -> str:
    """Serial row key without the schema-5 ``" [model]"`` annotation."""
    return key.split(" [", 1)[0]


def compare_with(previous_path: str,
                 serial: Dict[str, Dict[str, float]],
                 calibration: Optional[float] = None) -> Dict[str, Dict]:
    """Per-config throughput and EPI changes vs an older BENCH_*.json.

    Older-schema artifacts degrade gracefully: anything missing from the
    old file is reported under ``missing_sections`` instead of raising,
    and only the rows/fields both artifacts share are diffed.  Diff keys
    keep the current artifact's model annotation
    (``"swim/seg-512-128ch [segmented]"``); pre-schema-5 artifacts are
    matched by the bare ``workload/config`` key.
    """
    with open(previous_path) as handle:
        previous = json.load(handle)
    missing = [section for section in _COMPARE_SECTIONS
               if section not in previous]
    out: Dict[str, Dict] = {
        "previous_schema": previous.get("schema"),
        "kcycles_speedup": {}, "epi_ratio": {}, "kernels_mismatch": {}}
    if missing:
        out["missing_sections"] = missing
    old_calibration = previous.get("machine", {}).get("calibration_seconds")
    if calibration and old_calibration:
        # >1 means the host itself got faster since the old artifact;
        # divide the speedups below by this to isolate code changes.
        out["host_speed_ratio"] = round(old_calibration / calibration, 3)
    if "serial" in missing:
        return out
    old_rows = {_bare_key(key): row
                for key, row in previous["serial"].items()}
    for key, row in serial.items():
        old = old_rows.get(_bare_key(key))
        if not old:
            continue
        # Throughput diffs across different kernel backends measure the
        # backend, not the PR under test — record the mismatch so the
        # summary can warn instead of letting the diff pass silently.
        old_kernels = old.get("kernels")
        if old_kernels is not None and old_kernels != row.get("kernels"):
            out["kernels_mismatch"][key] = {
                "previous": old_kernels, "current": row.get("kernels")}
        if old.get("kcycles_per_sec"):
            out["kcycles_speedup"][key] = round(
                row["kcycles_per_sec"] / old["kcycles_per_sec"], 3)
        if old.get("energy_per_instruction"):
            out["epi_ratio"][key] = round(
                row["energy_per_instruction"]
                / old["energy_per_instruction"], 4)
    return out


def measure_surrogate(workloads: Sequence[str], max_instructions: int,
                      jobs: int, *, quick: bool = False,
                      progress=None) -> Dict[str, object]:
    """Score the analytical surrogate against simulation on the grid.

    Embeds the full :func:`repro.harness.surrogate.validation_report`
    (per-cell predicted vs simulated IPC and the error-bound verdict) so
    the surrogate's accuracy contract is tracked PR over PR; CI asserts
    ``within_bound`` on the quick artifact.
    """
    from repro.fabric import ExecutionConfig
    from repro.harness.surrogate import default_grid, validation_report
    grid = default_grid()
    if quick:
        grid = grid[:4]
    if progress is not None:
        progress(f"surrogate: {len(workloads) * len(grid)} cells validation")
    start = time.perf_counter()
    report = validation_report(list(workloads), grid,
                               max_instructions=max_instructions,
                               execution=ExecutionConfig(jobs=jobs))
    report["seconds"] = round(time.perf_counter() - start, 3)
    return report


#: Pipeline-stage -> profiled call sites, matched as (path suffix,
#: function name) against pstats entries.  Times are *inclusive*
#: (cumulative): ``dispatch`` contains the IQ admission it calls into,
#: and ``iq_engine`` counts the IQ entry points wherever they were
#: entered from — the buckets answer "how much of the run passes
#: through this stage", Amdahl's question, and deliberately overlap.
_PROFILE_STAGES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "dispatch": (("pipeline/processor.py", "_dispatch"),),
    "fetch": (("frontend/fetch.py", "cycle"),),
    "issue": (("pipeline/processor.py", "_issue"),),
    "commit": (("pipeline/processor.py", "_commit"),),
    "iq_engine": (("core/segmented/queue.py", "cycle"),
                  ("core/segmented/queue.py", "select_issue"),
                  ("core/segmented/queue.py", "dispatch"),
                  ("core/segmented/queue.py", "can_dispatch"),
                  ("core/segmented/queue.py", "next_event_cycle"),
                  ("core/segmented/queue.py", "skip_cycles")),
}


def _profile_stats(workload: str, config: str, max_instructions: int):
    """cProfile one serial cell; returns the raw ``pstats.Stats``."""
    import cProfile
    import pstats

    factory = dict(SERIAL_CONFIGS).get(config)
    if factory is None:
        known = ", ".join(label for label, _ in SERIAL_CONFIGS)
        raise ValueError(f"unknown serial config {config!r}; known: {known}")
    params = factory()
    profiler = cProfile.Profile()
    profiler.enable()
    api.run(params, workload, config_label=config,
            max_instructions=max_instructions)
    profiler.disable()
    return pstats.Stats(profiler)


def _stage_breakdown(stats) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per-stage inclusive seconds/fractions from a ``pstats.Stats``."""
    total = stats.total_tt
    stages: Dict[str, Dict[str, float]] = {}
    for stage, sites in _PROFILE_STAGES.items():
        seconds = 0.0
        for (path, _line, func), entry in stats.stats.items():
            normalized = path.replace("\\", "/")
            for suffix, name in sites:
                if func == name and normalized.endswith(suffix):
                    seconds += entry[3]          # ct: cumulative seconds
                    break
        stages[stage] = {
            "seconds": round(seconds, 4),
            "fraction": round(seconds / total, 4) if total else 0.0,
        }
    return stages, total


def measure_profile(workload: str = "gcc",
                    config: str = "seg-512-128ch",
                    max_instructions: int = 20_000,
                    progress=None) -> Dict[str, object]:
    """Profile one serial cell and return the per-stage Amdahl split.

    One cProfiled run of the dense segmented design point, reduced to
    the five pipeline stages of :data:`_PROFILE_STAGES`.  Embedded in
    the artifact (schema 8) so stage shares are diffable PR over PR;
    profiler overhead inflates the absolute seconds, which is why the
    *fractions* are the tracked quantity.
    """
    from repro.core.segmented.kernels import backend as kernel_backend
    if progress is not None:
        progress(f"profile {workload}/{config}")
    stats = _profile_stats(workload, config, max_instructions)
    stages, total = _stage_breakdown(stats)
    return {
        "workload": workload,
        "config": config,
        "max_instructions": max_instructions,
        "kernels": kernel_backend(),
        "total_seconds": round(total, 4),
        "stages": stages,
    }


def profile_serial_cell(workload: str = "gcc",
                        config: str = "seg-512-128ch",
                        max_instructions: int = 20_000) -> str:
    """cProfile one serial cell; return the stage split plus the
    top-20 cumulative report."""
    import io

    stats = _profile_stats(workload, config, max_instructions)
    stages, total = _stage_breakdown(stats)
    buffer = io.StringIO()
    buffer.write(f"profile: {workload}/{config} "
                 f"({max_instructions} instructions)\n")
    buffer.write(f"stage split (inclusive of {total:.3f}s total):\n")
    for stage, row in sorted(stages.items(),
                             key=lambda item: -item[1]["seconds"]):
        buffer.write(f"  {stage:<10} {row['seconds']:8.4f}s "
                     f"{100 * row['fraction']:5.1f}%\n")
    stats.stream = buffer
    stats.sort_stats("cumulative").print_stats(20)
    return buffer.getvalue()


def run_bench(*, jobs: Optional[int] = None, quick: bool = False,
              workloads: Optional[Sequence[str]] = None,
              max_instructions: Optional[int] = None,
              out_dir: str = ".",
              compare: Optional[str] = None,
              backend: str = "local-process",
              progress=None) -> Tuple[Path, dict]:
    """Run the full benchmark and write ``BENCH_<date>.json``.

    Returns (artifact path, data).  ``quick`` shrinks the grid and the
    instruction budgets for CI smoke runs; ``workloads`` /
    ``max_instructions`` override the defaults for targeted runs.
    """
    from repro.fabric import default_jobs
    jobs = default_jobs() if jobs is None else max(1, jobs)
    serial_configs = QUICK_SERIAL if quick else SERIAL_CONFIGS
    sweep_configs = QUICK_SWEEP_CONFIGS if quick else SWEEP_CONFIGS
    sweep_workloads = list(workloads) if workloads else (
        QUICK_SWEEP_WORKLOADS if quick else SWEEP_WORKLOADS)
    serial_workloads = sweep_workloads[:2] if quick else sweep_workloads
    budget = max_instructions if max_instructions is not None else (
        4_000 if quick else 20_000)

    serial = measure_serial(serial_workloads, serial_configs, budget,
                            progress=progress)
    sweep = measure_sweep(sweep_workloads, sweep_configs, budget, jobs,
                          backend=backend, progress=progress)
    sampling = measure_sampling(quick=quick, progress=progress)
    metrics = measure_metrics(serial_workloads[0], budget,
                              progress=progress)
    surrogate = measure_surrogate(serial_workloads, budget, jobs,
                                  quick=quick, progress=progress)
    profile = measure_profile(serial_workloads[0],
                              max_instructions=budget, progress=progress)

    machine = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "calibration_seconds": measure_calibration(),
    }
    data = {
        "schema": SCHEMA_VERSION,
        "date": datetime.datetime.now().isoformat(timespec="seconds"),
        "quick": quick,
        "machine": machine,
        "serial": serial,
        "serial_geomean": {
            "kcycles_per_sec": round(_geomean(
                [row["kcycles_per_sec"] for row in serial.values()]), 2),
            "kinsts_per_sec": round(_geomean(
                [row["kinsts_per_sec"] for row in serial.values()]), 2),
        },
        "sweep": sweep,
        "sampling": sampling,
        "metrics": metrics,
        "surrogate": surrogate,
        "profile": profile,
    }
    if compare:
        diff = compare_with(compare, serial,
                            calibration=machine["calibration_seconds"])
        data["compare"] = {"previous": compare, **diff}

    stamp = datetime.date.today().strftime("%Y%m%d")
    path = Path(out_dir) / f"BENCH_{stamp}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path, data


def render_summary(data: dict) -> str:
    """Terse human-readable digest of one bench run."""
    sweep = data["sweep"]
    lines = [
        f"bench {data['date']}  (python {data['machine']['python']}, "
        f"{data['machine']['cpu_count']} cpu)",
        f"  serial throughput (geomean): "
        f"{data['serial_geomean']['kcycles_per_sec']} kcycles/s, "
        f"{data['serial_geomean']['kinsts_per_sec']} kinsts/s",
    ]
    ratios = [row["skip_ratio"] for row in data["serial"].values()
              if "skip_ratio" in row]
    if ratios:
        lines.append(f"  skip-ahead: {100 * sum(ratios) / len(ratios):.1f}% "
                     f"of cycles fast-forwarded (mean over serial cells)")
    lines += [
        f"  sweep {sweep['cells']} cells "
        f"[{sweep.get('backend', 'local-process')}]: "
        f"serial {sweep['serial_seconds']}s, "
        f"jobs={sweep['jobs']} {sweep['parallel_seconds']}s "
        f"({sweep['parallel_speedup']}x), "
        f"cached {sweep['cached_seconds']}s "
        f"({100 * sweep['cached_fraction_of_cold']:.1f}% of cold)",
    ]
    sampling = data.get("sampling")
    if sampling:
        lines.append(
            f"  sampling {sampling['workload']}: "
            f"{sampling['sampled_seconds']}s vs full "
            f"{sampling['full_seconds']}s "
            f"({sampling['wall_speedup']}x wall, "
            f"{sampling['detail_cycle_ratio']}x fewer detailed cycles)")
    profile = data.get("profile")
    if profile:
        split = ", ".join(
            f"{stage} {100 * row['fraction']:.0f}%"
            for stage, row in sorted(
                profile["stages"].items(),
                key=lambda item: -item[1]["fraction"]))
        lines.append(
            f"  profile {profile['workload']}/{profile['config']} "
            f"[{profile.get('kernels', '?')}]: {split} (inclusive)")
    surrogate = data.get("surrogate")
    if surrogate:
        verdict = "PASS" if surrogate.get("within_bound") else "FAIL"
        lines.append(
            f"  surrogate: mean |error| "
            f"{100 * surrogate['mean_abs_rel_error']:.1f}% over "
            f"{surrogate['scored_cells']} cells "
            f"(bound {100 * surrogate['error_bound']:.0f}%) {verdict}")
    metrics = data.get("metrics")
    if metrics:
        means = metrics.get("series_means", {})
        lines.append(
            f"  metrics {metrics['workload']}: "
            f"ipc {means.get('ipc', 0.0)}, "
            f"issue util {means.get('issue.utilization', 0.0)}, "
            f"tracing overhead {100 * metrics['tracing_overhead']:+.1f}% "
            f"({metrics['events_emitted']} events)")
    if "compare" in data:
        compare = data["compare"]
        missing = compare.get("missing_sections")
        if missing:
            lines.append(
                f"  vs {compare['previous']}: no diff — artifact "
                f"(schema {compare.get('previous_schema')}) is missing "
                f"section(s): {', '.join(missing)}")
        mismatched = compare.get("kernels_mismatch", {})
        if mismatched:
            example = next(iter(mismatched.values()))
            lines.append(
                f"  WARNING: {len(mismatched)} row(s) compare different "
                f"kernel backends ({example['previous']} -> "
                f"{example['current']}); the speedup below measures the "
                f"backend, not this change")
        speedups = compare["kcycles_speedup"]
        if speedups:
            mean = _geomean(list(speedups.values()))
            lines.append(f"  vs {compare['previous']}: "
                         f"{mean:.2f}x kcycles/s (geomean)")
            host = compare.get("host_speed_ratio")
            if host:
                lines.append(
                    f"  host calibration: {host:.2f}x vs previous "
                    f"artifact (code-only speedup ~{mean / host:.2f}x)")
        epi = compare.get("epi_ratio", {})
        if epi:
            mean = _geomean(list(epi.values()))
            lines.append(f"  energy/instruction vs previous: "
                         f"{mean:.3f}x (geomean)")
    return "\n".join(lines)
