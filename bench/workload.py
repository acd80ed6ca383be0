"""One workload of the benchmark, measured in this (fresh) interpreter.

``run.py`` starts this script; ``src`` must be on ``PYTHONPATH``::

    python3 bench/workload.py --setup NAME --seed N [--smoke]
        print one JSON line: this interpreter's set-up time
    python3 bench/workload.py --run NAME --seed N --seconds S --trace 0|1
                              --out FILE [--chrome FILE] [--smoke]
        measure the workload; write the raw measurements to FILE
    python3 bench/workload.py --write-golden
        re-record the golden stats of every seed-0 cell

Load shape: closed loops from this one process.  The serial workloads
run one cell at a time in-process through ``api.run``; ``sweep_small``
runs whole passes through ``Sweep.run`` on the ``local-process``
backend with ``min(2, nproc)`` cells in flight.  Each cold repetition
uses a fresh result cache (and, for the sweep, a fresh journal); warm
passes then re-run the cells against the last repetition's cache.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Tuple

#: Iterations of the host-speed probe: the loop of
#: ``repro.harness.bench.measure_calibration``, copied so that a change
#: to the program under test cannot change the calibration, and cut to a
#: quarter of its 2M iterations because it runs around every cell.
SPIN_ITERATIONS = 500_000

#: Probe seconds (CPU, wall) that calibrated times are scaled to: about
#: the probe's median on the host the bounds were measured on.
REF_SPIN = (0.040, 0.040)

#: The cache-hit probe: reading :data:`CACHE_PROBE_RECORD` from a file
#: and decoding it, the work of a result-cache hit, this many times.  A
#: busy host slows file reads and JSON decoding more than the spin loop,
#: so warm (all cache hits) passes are calibrated by this probe instead.
CACHE_PROBE_READS = 600
#: A fixed record shaped like a cache entry: about 2 KB, mostly stats.
CACHE_PROBE_RECORD = json.dumps(
    {"cycles": 1234567, "instructions": 100000, "ipc": 0.8100445,
     "stats": {f"layer{i % 8}.counter{i}": i * 37 % 1013 + 0.5 * (i % 3)
               for i in range(80)}}, sort_keys=True)
REF_CACHE_PROBE = (0.016, 0.016)

MIN_REPS = 3
#: Warm passes after each cold repetition take this share of its time.
WARM_SHARE = 0.12
WARM_BATCH_SECONDS = 0.05
#: A host so slow that repetitions overrun stops here, so that the run
#: still ends well inside its 180 s.
MAX_SECONDS = 120.0


def spin() -> Tuple[float, float]:
    """(CPU, wall) seconds the fixed pure-Python probe loop takes now."""
    wall = time.perf_counter()
    cpu = time.process_time()
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i ^ (i >> 3)
    return time.process_time() - cpu, time.perf_counter() - wall


def cache_probe(path: Path) -> Tuple[float, float]:
    """(CPU, wall) seconds the cache-hit probe takes now on the record
    file ``path``."""
    wall = time.perf_counter()
    cpu = time.process_time()
    for _ in range(CACHE_PROBE_READS):
        json.loads(path.read_text())
    return time.process_time() - cpu, time.perf_counter() - wall


def calibrated(seconds: float, before, after, index: int,
               ref=REF_SPIN) -> float:
    """``seconds`` scaled to the reference host speed by the probes run
    either side of the measurement (``index`` 0 = CPU, 1 = wall) and the
    probe's reference time ``ref``."""
    return seconds * ref[index] * 2 / (before[index] + after[index])


def kernel_backend() -> str:
    try:
        from repro.core.segmented.kernels import backend
    except ImportError:
        return "unknown"
    return backend()


def cpu_with_children() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def reap_children() -> None:
    """Wait for pool workers to exit, so their CPU time is counted."""
    import multiprocessing
    for child in multiprocessing.active_children():
        child.join(30)


def peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


# ------------------------------------------------------------------- set-up
def setup_probe(name: str, seed: int, smoke: bool) -> dict:
    """Time ``import repro``, kernel backend resolution and building the
    workload's programs, in this fresh interpreter."""
    before = spin()
    start = time.perf_counter()
    import repro  # noqa: F401
    kernels = kernel_backend()
    import cells
    programs = cells.build_programs(name, seed, smoke)
    seconds = time.perf_counter() - start
    after = spin()
    return {"setup_s": seconds, "cal_s": calibrated(seconds, before, after, 1),
            "kernels": kernels, "programs": programs}


# ------------------------------------------------------------------ checks
class Checker:
    """Checks every result against its golden record; counts failures.

    At seeds other than 0 the synthetic kernels are new, so their check
    is the functional executor's instruction count instead.
    """

    def __init__(self, name: str, seed: int, cell_list) -> None:
        import cells
        self.mismatch = cells.mismatch
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.golden = {}
        self.functional = None
        if name == "synthetic_mem" and seed != 0:
            from repro.isa.executor import run_functional
            counts = {}
            self.functional = {}
            for cell in cell_list:
                spec = cell.workload
                if spec.name not in counts:
                    counts[spec.name] = run_functional(
                        spec.build(1),
                        cell.max_instructions).instruction_count
                self.functional[cell.id] = counts[spec.name]
        else:
            self.golden = cells.load_golden()

    def check(self, cell_id: str, result, error: Optional[str]) -> None:
        self.attempted += 1
        if error is None:
            if self.functional is not None:
                want = self.functional[cell_id]
                if result.instructions != want:
                    error = (f"instructions {result.instructions} != "
                             f"functional {want}")
            else:
                error = self.mismatch(result, self.golden.get(cell_id))
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{cell_id}: {error}")


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


#: Stats summed over a repetition for the trace's ratios.
STAT_KEYS = ("cycles", "skip.cycles_skipped", "iq.promotions",
             "l1d.misses", "l1d.accesses")


# ----------------------------------------------------------------- runners
class Runner:
    """Runs one workload's cells, cold (simulated) or warm (cache hits)."""

    def __init__(self, name: str, seed: int, smoke: bool, tmp: Path) -> None:
        import cells
        self.name = name
        self.seed = seed
        self.cells = cells.build_cells(name, seed, smoke)
        self.tmp = tmp
        self.jobs = min(2, os.cpu_count() or 1)
        self.is_sweep = name == "sweep_small"
        self.probe_file = tmp / "cache_probe.json"
        self.probe_file.write_text(CACHE_PROBE_RECORD)
        #: Workload specs made here rather than registered (synthetic
        #: kernels), built now so that no timed cell builds them.
        self.specs = list({id(cell.workload): cell.workload
                           for cell in self.cells
                           if not isinstance(cell.workload, str)}.values())
        for spec in self.specs:
            spec.build(1)

    def fresh_cache(self):
        from repro.harness.cache import ResultCache
        return ResultCache(tempfile.mkdtemp(dir=self.tmp))

    def run_cell(self, cell, cache=None):
        """(result, error) of one cell run in-process through ``api.run``."""
        from repro import api
        from repro.fabric import ExecutionConfig
        try:
            return api.run(cell.params, cell.workload,
                           config_label=cell.label,
                           max_instructions=cell.max_instructions,
                           execution=ExecutionConfig(cache=cache)), None
        except Exception as exc:            # noqa: BLE001 — counted failure
            return None, _error(exc)

    def run_sweep(self, rep: int, cache, journal=None) -> List[tuple]:
        """[(cell, result, error)] of one pass of the grid through
        ``Sweep.run`` on the ``local-process`` backend."""
        import cells
        from repro.fabric import ExecutionConfig
        from repro.harness.sweep import Sweep
        params = {cell.label: cell.params for cell in self.cells}
        sweep = Sweep(workloads=cells.shuffled(
            sorted({cell.workload for cell in self.cells}), self.seed, rep),
            max_instructions=self.cells[0].max_instructions)
        for label in cells.shuffled(sorted(params), self.seed, rep):
            sweep.add_config(label, params[label])
        try:
            grid = sweep.run(execution=ExecutionConfig(
                backend="local-process", jobs=self.jobs, cache=cache,
                journal=journal))
        except Exception as exc:            # noqa: BLE001 — counted failures
            return [(cell, None, _error(exc)) for cell in self.cells]
        return [(cell, grid.results[cell.workload][cell.label], None)
                for cell in self.cells]

    def serial(self, rep: int, cache, checker: Checker, rec=None) -> dict:
        """One timed pass over the cells in-process, a probe either side
        of each cell."""
        import cells
        rows = []
        stats = dict.fromkeys(STAT_KEYS, 0)
        before = spin()
        for cell in cells.shuffled(self.cells, self.seed, rep):
            if rec is not None:
                rec.begin_cell(cell.id)
            cpu, wall = time.process_time(), time.perf_counter()
            result, error = self.run_cell(cell, cache)
            gc.collect()
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
            after = spin()
            checker.check(cell.id, result, error)
            rows.append({"cell": cell.id, "cpu_s": cpu, "wall_s": wall,
                         "spin_before": before, "spin_after": after,
                         "instructions": result.instructions
                         if result is not None else 0})
            if result is not None:
                for key in STAT_KEYS:
                    stats[key] += result.stats.get(key, 0)
            before = after
        return {"cells": len(rows),
                "instructions": sum(row["instructions"] for row in rows),
                "cpu_s": sum(row["cpu_s"] for row in rows),
                "wall_s": sum(row["wall_s"] for row in rows),
                "cpu_cal_s": sum(calibrated(row["cpu_s"], row["spin_before"],
                                            row["spin_after"], 0)
                                 for row in rows),
                "wall_cal_s": sum(calibrated(row["wall_s"],
                                             row["spin_before"],
                                             row["spin_after"], 1)
                                  for row in rows),
                "stats": stats, "rows": rows}

    def swept(self, rep: int, cache, journal, checker: Checker) -> dict:
        """One timed pass of the grid on the fabric, a probe either side.
        CPU time includes the pool workers'."""
        before = spin()
        cpu, wall = cpu_with_children(), time.perf_counter()
        outcome = self.run_sweep(rep, cache, journal)
        gc.collect()
        wall = time.perf_counter() - wall
        reap_children()
        cpu = cpu_with_children() - cpu
        after = spin()
        for cell, result, error in outcome:
            checker.check(cell.id, result, error)
        return {"cells": len(outcome),
                "instructions": sum(result.instructions
                                    for _cell, result, _error in outcome
                                    if result is not None),
                "cpu_s": cpu, "wall_s": wall,
                "cpu_cal_s": calibrated(cpu, before, after, 0),
                "wall_cal_s": calibrated(wall, before, after, 1),
                "spin_before": before, "spin_after": after}

    def cold(self, rep: int, checker: Checker, rec=None):
        """One cold repetition against a fresh cache: (row, cache)."""
        cache = self.fresh_cache()
        if not self.is_sweep:
            return self.serial(rep, cache, checker, rec), cache
        journal = Path(tempfile.mkdtemp(dir=self.tmp)) / "journal.jsonl"
        if rec is not None:
            rec.begin_cell("cold-pass")
        return self.swept(rep, cache, journal, checker), cache

    def warm_pass(self, cache) -> List[tuple]:
        """Every cell again, all cache hits: [(cell, result, error)]."""
        if self.is_sweep:
            return self.run_sweep(0, cache)
        return [(cell, *self.run_cell(cell, cache)) for cell in self.cells]


# ------------------------------------------------------------------ phases
def repetitions(runner: Runner, checker: Checker, budget_s: float,
                min_reps: int, batch_s: float):
    """Cold repetitions, each followed by warm passes over its own cache,
    until the next repetition would overrun ``budget_s``: (cold rows,
    warm batches).  Interleaving samples both across the whole run."""
    reps, warm = [], []
    start = time.perf_counter()
    deadline = start + MAX_SECONDS
    while True:
        began = time.perf_counter()
        row, cache = runner.cold(len(reps), checker)
        warm += warm_batches(runner, cache, checker,
                             WARM_SHARE * row["wall_s"], batch_s)
        shutil.rmtree(cache.directory, ignore_errors=True)
        reps.append(row)
        now = time.perf_counter()
        if len(reps) >= min_reps and now - start + (now - began) > budget_s:
            break
        if now > deadline:
            break
    return reps, warm


def warm_batches(runner: Runner, cache, checker: Checker, seconds: float,
                 batch_s: float) -> List[dict]:
    """Batches of warm passes timing at least ``batch_s`` each, until
    ``seconds`` have passed; the cache-hit probe runs around every batch
    and calibrates it.  Many short batches keep the median clear of host
    hiccups.  Each pass's results are checked, untimed, before the next
    pass, so memory stays flat however fast the passes are."""
    batches = []
    start = time.perf_counter()
    before = cache_probe(runner.probe_file)
    while not batches or time.perf_counter() - start < seconds:
        cells = wall = 0
        while wall < batch_s:
            began = time.perf_counter()
            outcome = runner.warm_pass(cache)
            wall += time.perf_counter() - began
            cells += len(outcome)
            for cell, result, error in outcome:
                checker.check(cell.id, result, error)
        after = cache_probe(runner.probe_file)
        batches.append({"cells": cells, "wall_s": wall,
                        "wall_cal_s": calibrated(wall, before, after, 1,
                                                 REF_CACHE_PROBE),
                        "probe_before": before, "probe_after": after})
        before = after
    return batches


def _kips(row: dict) -> float:
    return row["instructions"] / row["cpu_cal_s"] / 1e3


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def measure(runner: Runner, checker: Checker, seconds: float,
            smoke: bool) -> dict:
    """The untraced run: every end-to-end metric's raw values."""
    reps, warm = repetitions(runner, checker, seconds,
                             1 if smoke else MIN_REPS,
                             WARM_BATCH_SECONDS / (10 if smoke else 1))
    reap_children()
    for row in reps:
        row.pop("stats", None)
    return {"reps": reps, "warm": warm, "peak_rss_kb": peak_rss_kb()}


def measure_traced(runner: Runner, checker: Checker, chrome: Optional[str]
                   ) -> dict:
    """One untraced and one traced repetition: per-layer self times, the
    ratios that explain them, and what the tracing cost."""
    import spans
    rec = spans.Recorder()
    extra = {}
    if runner.is_sweep:
        # Worker-side spans die with the workers, so the fabric passes are
        # traced at the cell level only and the simulator's layers come
        # from the same cells run in-process.
        rec.install(levels=("cell",))
        try:
            cold, cache = runner.cold(0, checker, rec)
            rec.begin_cell("warm-pass")
            for cell, result, error in runner.warm_pass(cache):
                checker.check(cell.id, result, error)
        finally:
            rec.restore()
        untraced = runner.serial(1, None, checker)
        rec.install(specs=runner.specs)
        try:
            traced = runner.serial(2, None, checker, rec)
        finally:
            rec.restore()
        secs = rec.layer_seconds()
        extra = {
            "harness.sweep_self_s": secs.get("harness.sweep", 0.0),
            "fabric.executor_self_s": secs.get("fabric.executor", 0.0),
            "fabric.journal_record_s": secs.get("fabric.journal_record",
                                                0.0),
            # Assumes the jobs overlap fully.
            "fabric.overhead_per_cell_s": (
                cold["wall_cal_s"] * runner.jobs - untraced["wall_cal_s"])
            / len(runner.cells)}
    else:
        untraced, _ = runner.cold(0, checker)
        rec.install(specs=runner.specs)
        try:
            traced, cache = runner.cold(1, checker, rec)
            for cell in runner.cells:
                rec.begin_cell("warm:" + cell.id)
                result, error = runner.run_cell(cell, cache)
                checker.check(cell.id, result, error)
        finally:
            rec.restore()
    layers = layer_metrics(rec, traced, [cache])
    layers.update(extra)
    layers["trace.overhead"] = _kips(untraced) / _kips(traced) - 1
    if chrome:
        Path(chrome).write_text(json.dumps(
            spans.chrome_trace(runner.name, rec)) + "\n")
    for row in (untraced, traced):
        row.pop("rows", None)
    return {"layers": layers, "summary": rec.summary(),
            "untraced": untraced, "traced": traced,
            "insts_equal": rec.insts == traced["instructions"]}


def layer_metrics(rec, traced: dict, caches) -> dict:
    """The per-layer metrics of one traced repetition."""
    secs = rec.layer_seconds()
    stats = traced["stats"]
    steps = rec.calls_of("pipeline.step", "step")
    hits = sum(cache.hits for cache in caches)
    lookups = hits + sum(cache.misses for cache in caches)
    out = {"workloads.build_s": secs.get("workloads.build", 0.0),
           "isa.execute_s": secs.get("isa.execute", 0.0),
           "isa.insts": rec.insts,
           "frontend.cycle_s": secs.get("frontend.cycle", 0.0),
           "frontend.probe_s": secs.get("frontend.probe", 0.0),
           "pipeline.step_self_s": secs.get("pipeline.step", 0.0),
           "pipeline.steps": steps,
           "pipeline.probe_s": secs.get("pipeline.probe", 0.0),
           "pipeline.skip_ratio": _ratio(stats["skip.cycles_skipped"],
                                         stats["cycles"]),
           "pipeline.lsq_s": secs.get("pipeline.lsq", 0.0),
           "core.iq_cycle_s": secs.get("core.iq_cycle", 0.0),
           "core.iq_dispatch_s": secs.get("core.iq_dispatch", 0.0),
           "core.iq_issue_s": secs.get("core.iq_issue", 0.0),
           "core.iq_probe_s": secs.get("core.iq_probe", 0.0),
           "core.iq_writeback_s": secs.get("core.iq_writeback", 0.0),
           "core.dispatch_accept_ratio": _ratio(
               rec.calls_of("core.iq_dispatch", "dispatch"),
               rec.calls_of("core.iq_dispatch", "can_dispatch")),
           "core.promotions_per_step": _ratio(stats["iq.promotions"],
                                              steps),
           "memory.access_s": secs.get("memory.access", 0.0),
           "memory.l1d_miss_ratio": _ratio(stats["l1d.misses"],
                                           stats["l1d.accesses"]),
           "harness.run_self_s": secs.get("harness.run", 0.0),
           "harness.key_s": secs.get("harness.key", 0.0),
           "harness.cache_get_s": secs.get("harness.cache_get", 0.0),
           "harness.cache_put_s": secs.get("harness.cache_put", 0.0),
           "harness.cache_hit_ratio": _ratio(hits, lookups)}
    if "common.events" not in rec.unavailable:
        out["common.events_s"] = secs.get("common.events", 0.0)
    return out


# ------------------------------------------------------------------ golden
def write_golden() -> Path:
    """Run every seed-0 cell (full and smoke budgets) once and record
    its cycles, instructions and stats in ``bench/golden_seed0.json``."""
    import cells
    from repro import api
    records = {}
    for smoke in (False, True):
        for name in cells.NAMES:
            for cell in cells.build_cells(name, 0, smoke):
                result = api.run(cell.params, cell.workload,
                                 config_label=cell.label,
                                 max_instructions=cell.max_instructions)
                records[cell.id] = cells.golden_record(result)
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(records.items())]
    cells.GOLDEN_PATH.write_text('{"schema": 1, "seed": 0, "cells": {\n'
                                 + ",\n".join(lines) + "\n}}\n")
    return cells.GOLDEN_PATH


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup", metavar="WORKLOAD")
    mode.add_argument("--run", metavar="WORKLOAD")
    mode.add_argument("--write-golden", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--chrome")
    args = parser.parse_args(argv)
    if args.setup:
        print(json.dumps(setup_probe(args.setup, args.seed, args.smoke)))
        return 0
    if args.write_golden:
        print(f"wrote {write_golden()}")
        return 0
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.run}-"))
    try:
        runner = Runner(args.run, args.seed, args.smoke, tmp)
        checker = Checker(args.run, args.seed, runner.cells)
        # Everything loaded so far lives to the end; freezing it keeps
        # the benchmark's own data out of every collection, and each
        # timed cell ends by collecting its own garbage, so memory and
        # collection costs do not depend on the order the cells ran in.
        gc.collect()
        gc.freeze()
        if args.trace:
            data = measure_traced(runner, checker, args.chrome)
        else:
            data = measure(runner, checker, args.seconds, args.smoke)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    data.update({"workload": args.run, "seed": args.seed,
                 "cells": len(runner.cells), "jobs": runner.jobs,
                 "kernels": kernel_backend(),
                 "attempted": checker.attempted, "failed": checker.failed,
                 "failures": checker.failures})
    Path(args.out).write_text(json.dumps(data) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
