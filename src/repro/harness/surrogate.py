"""Analytical IPC surrogate: a queuing model over functional profiles.

Cycle-accurate simulation of a (workload, configuration) grid is the
cost center of every sweep.  This module implements the alternative
explored by Carroll & Lin ("An Analytical Model for Out-of-Order
Superscalar Performance", arXiv 1807.08586) and the interval-analysis
line of work it builds on: predict IPC *analytically* from a one-pass
functional profile of the workload plus the machine configuration, and
score that prediction against cycle-accurate simulation.

The model composes throughput bounds, each a classic queuing argument:

* **width** — the pipeline cannot sustain more than
  ``min(fetch, dispatch, issue, commit)`` instructions per cycle;
* **fu:<class>** — each function-unit class is a server pool; with
  ``n_c`` units and a per-instruction service demand ``d_c`` (occupancy
  cycles per instruction, >1 per op for unpipelined units), utilization
  caps IPC at ``n_c / d_c``;
* **dataflow** — the program's dependence-chain critical path (computed
  with L1-hit latencies) bounds IPC at ``N / CP`` regardless of window;
* a **window/memory** term from interval analysis: an instruction
  window of ``W`` entries hides ``W / IPC_core`` cycles of each memory
  miss; the exposed remainder, divided by the achievable memory-level
  parallelism, is added to the busy time (Little's law applied to the
  ROB as the queue and memory as the slow server);
* a **branch** term charging the front-end refill depth per mispredict.

Per-IQ-kind *window efficiency* factors reflect how much of the nominal
capacity each design converts into useful lookahead (a segmented queue
with chain pushdown wastes some slots; a FIFO-based queue blocks on
heads).  The absolute scale of each (workload, kind) pair is then
pinned by **anchor calibration**: simulate the smallest configuration
of each kind, take the ratio of simulated to predicted IPC, and apply
it multiplicatively to the rest of that kind's size curve.  The
surrogate's *uncertainty* grows with distance (in log2 window size)
from the calibration anchor.

Entry points:

* :class:`Surrogate` — profile, predict, calibrate (one prediction at a
  time through :func:`repro.api.predict`);
* :func:`validation_report` — predicted-vs-simulated comparison over a
  grid, behind ``python -m repro surrogate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.params import ProcessorParams
from repro.common.stats import StatGroup
from repro.frontend.branch_predictor import HybridBranchPredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.harness.sweep import Cell, run_grid
from repro.isa.executor import execute
from repro.isa.instruction import DynInst
from repro.isa.opcodes import FUClass, OpClass
from repro.workloads import WORKLOADS

#: Documented accuracy contract: mean absolute relative IPC error of the
#: calibrated surrogate versus full-detail simulation, over the non-anchor
#: cells of :func:`default_grid` (see ``validation_report``).  CI asserts the
#: bound on every run; ``tests/harness/test_surrogate.py`` enforces it on
#: a representative grid.
SURROGATE_ERROR_BOUND = 0.25

#: Fraction of nominal IQ capacity each design converts into useful
#: lookahead (window efficiency).  Rough priors; anchor calibration pins
#: the absolute scale per (workload, kind), so only the *shape* across
#: sizes leans on these.
WINDOW_EFFICIENCY = {
    "ideal": 1.0,
    "delay_tracking": 0.95,
    "segmented": 0.85,
    "prescheduled": 0.70,
    "distance": 0.65,
    "fifo": 0.55,
}

#: Issue-capability discount per kind (scheduling restrictions that cost
#: throughput even with a warm window).  Absorbed by calibration when an
#: anchor is available.
ISSUE_EFFICIENCY = {
    "ideal": 1.0,
    "delay_tracking": 0.97,
    "segmented": 0.92,
    "prescheduled": 0.80,
    "distance": 0.75,
    "fifo": 0.70,
}


@dataclass
class WorkloadProfile:
    """One functional pass over a workload: everything the model needs.

    Collected once per workload (independent of IQ configuration) by
    :func:`collect_profile` — the FU-class mix, the dependence-chain
    critical path under L1-hit latencies, functional cache-miss counts
    from the warming tag arrays, and branch-predictor accuracy from the
    warming predictor replica.
    """

    workload: str
    scale: int
    instructions: int
    #: Occupancy cycles demanded per dynamic instruction, by FU class.
    fu_demand: Dict[str, float]
    #: Dependence-chain critical path (cycles), loads at L1-hit latency.
    critical_path: int
    loads: int
    stores: int
    #: Data references that missed L1 but hit L2 (functional tags).
    l2_hits: int
    #: Data references that missed the L2 (functional tags).
    mem_misses: int
    branches: int
    mispredicts: int

    @property
    def miss_density(self) -> float:
        """Main-memory misses per dynamic instruction."""
        return self.mem_misses / self.instructions if self.instructions else 0.0


@dataclass
class SurrogatePrediction:
    """Analytical IPC estimate with its bound decomposition."""

    ipc: float
    #: Throughput bounds by name ("width", "fu:int_alu", "dataflow", ...).
    bounds: Dict[str, float]
    #: Which term limits performance ("memory"/"branch" when the additive
    #: stall terms dominate the binding throughput bound).
    binding: str
    #: Relative half-width of the error band around ``ipc``.
    uncertainty: float
    calibrated: bool = False

    @property
    def low(self) -> float:
        return self.ipc * (1.0 - self.uncertainty)

    @property
    def high(self) -> float:
        return self.ipc * (1.0 + self.uncertainty)


class TagArray:
    """Tag/LRU/dirty-only cache model for functional warming.

    Mirrors the residency behaviour of :class:`repro.memory.cache.Cache`:
    same set indexing, MRU-first LRU order, allocate-on-miss with the miss
    access's write-ness as the initial dirty bit, LRU eviction.  No
    timing, no MSHRs, no bandwidth: timing-dependent contents (lines
    brought in by overlapping misses in a different order) can differ
    slightly from a detailed run.
    """

    def __init__(self, params) -> None:
        self.params = params
        self._num_sets = params.num_sets
        self._assoc = params.assoc
        self._line_shift = params.line_bytes.bit_length() - 1
        # Per set: [line_addr, dirty] entries, most-recently-used first.
        self._sets: List[List[List]] = [[] for _ in range(self._num_sets)]

    def line_addr(self, addr: int) -> int:
        return addr >> self._line_shift

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Touch ``addr``; returns True on a hit, allocating on a miss."""
        line = self.line_addr(addr)
        cache_set = self._sets[line % self._num_sets]
        for position, entry in enumerate(cache_set):
            if entry[0] == line:
                if position:
                    cache_set.pop(position)
                    cache_set.insert(0, entry)
                if is_write:
                    entry[1] = True
                return True
        if len(cache_set) >= self._assoc:
            cache_set.pop()
        cache_set.insert(0, [line, is_write])
        return False

    def warm_line(self, addr: int, dirty: bool = False) -> None:
        """Pre-install a line without counting it as a reference
        (mirrors :meth:`repro.memory.cache.Cache.warm_line`)."""
        line = self.line_addr(addr)
        cache_set = self._sets[line % self._num_sets]
        if any(entry[0] == line for entry in cache_set):
            return
        if len(cache_set) >= self._assoc:
            cache_set.pop()
        cache_set.insert(0, [line, dirty])


class BranchWarmer:
    """Replays ``FrontEnd._predict``'s exact predictor/BTB update sequence.

    The front end is trace-driven off the correct path, so its predictor
    state is a pure function of the instruction stream and this replica
    with the real predictor and BTB classes is exact.  The BTB's LRU
    order depends on *lookup* order too, so lookups are reproduced even
    though their results are discarded.
    """

    def __init__(self, params: ProcessorParams) -> None:
        self._scratch = StatGroup("warming")
        self.bpred = HybridBranchPredictor(params.branch, self._scratch)
        self.btb = BranchTargetBuffer(params.branch, self._scratch)
        self.branches = 0
        self.mispredicts = 0

    def observe(self, dyn: DynInst) -> None:
        static = dyn.static
        if static.info.op_class is OpClass.JUMP:
            self.btb.lookup(dyn.pc)
            self.btb.insert(dyn.pc)
            return
        if not static.is_branch:
            return
        self.branches += 1
        correct = self.bpred.update(dyn.pc, dyn.taken)
        if not correct:
            self.mispredicts += 1
        if dyn.taken:
            if correct:
                self.btb.lookup(dyn.pc)
            self.btb.insert(dyn.pc)


def collect_profile(workload: str, *, scale: int = 1,
                    max_instructions: Optional[int] = None,
                    params: Optional[ProcessorParams] = None
                    ) -> WorkloadProfile:
    """One functional pass: FU mix, critical path, miss and branch counts.

    Uses functional warming models (:class:`TagArray` caches,
    :class:`BranchWarmer` predictor replica) so the profile sees the
    residency behaviour the detailed hierarchy would, at interpreter
    speed.
    """
    spec = WORKLOADS[workload]
    program = spec.build(scale)
    base = params if params is not None else ProcessorParams()
    l1d = TagArray(base.memory.l1d)
    l2 = TagArray(base.memory.l2)
    if spec.warm_data:
        line = base.memory.l2.line_bytes
        for segment in program.segments.values():
            for byte_addr in range(segment.base,
                                   segment.base + segment.bytes, line):
                l2.warm_line(byte_addr)
    branches = BranchWarmer(base)
    load_latency = base.memory.l1d.hit_latency
    demand: Dict[str, float] = {}
    ready: Dict[int, int] = {}
    critical_path = 0
    count = loads = stores = l2_hits = mem_misses = 0
    for dyn in execute(program, max_instructions):
        count += 1
        info = dyn.static.info
        if info.fu_class is not FUClass.NONE:
            occupancy = 1.0 if info.pipelined else float(info.latency)
            name = info.fu_class.value
            demand[name] = demand.get(name, 0.0) + occupancy
        branches.observe(dyn)
        latency = info.latency
        if dyn.is_load:
            loads += 1
            latency = load_latency
        if dyn.is_store:
            stores += 1
        if dyn.is_mem and dyn.mem_addr is not None:
            if not l1d.access(dyn.mem_addr, dyn.is_store):
                if l2.access(dyn.mem_addr, dyn.is_store):
                    l2_hits += 1
                else:
                    mem_misses += 1
        start = 0
        for src in dyn.srcs:
            start = max(start, ready.get(src, 0))
        done = start + latency
        if dyn.dest is not None:
            ready[dyn.dest] = done
        if done > critical_path:
            critical_path = done
    per_inst = {name: total / count for name, total in demand.items()} \
        if count else {}
    return WorkloadProfile(
        workload=workload, scale=scale, instructions=count,
        fu_demand=per_inst, critical_path=critical_path,
        loads=loads, stores=stores, l2_hits=l2_hits,
        mem_misses=mem_misses, branches=branches.branches,
        mispredicts=branches.mispredicts)


def _effective_window(params: ProcessorParams) -> float:
    kind = params.iq.kind
    eta = WINDOW_EFFICIENCY[kind]
    return eta * min(params.iq.size, params.rob_size,
                     params.effective_lsq_size)


@dataclass
class _Parts:
    """Predicted cycle decomposition, the unit calibration operates on."""

    busy: float            # N / effective core throughput
    stall: float           # exposed memory latency + branch recovery
    bounds: Dict[str, float]
    binding: str
    min_bound: float       # hard IPC ceiling (width/FU/dataflow)


def _predict_parts(profile: WorkloadProfile,
                   params: ProcessorParams) -> _Parts:
    n = max(profile.instructions, 1)
    kind = params.iq.kind
    bounds: Dict[str, float] = {
        "width": float(min(params.fetch_width, params.dispatch_width,
                           params.issue_width, params.commit_width)),
        "dataflow": n / max(profile.critical_path, 1),
    }
    for name, per_inst in profile.fu_demand.items():
        if per_inst > 0:
            units = params.fu_counts.get(name, 0)
            bounds[f"fu:{name}"] = units / per_inst if units else 0.0
    phi = ISSUE_EFFICIENCY[kind]
    binding = min(bounds, key=lambda name: bounds[name])
    min_bound = bounds[binding]
    ipc_core = max(min_bound * phi, 1e-6)
    # Lookahead cannot usefully run past the next mispredicted branch;
    # cap both windows at a couple of misprediction intervals.
    run_cap = (2.0 * n / profile.mispredicts
               if profile.mispredicts else float("inf"))
    # Short latencies (L2 hits) are hidden by the *issue* window the IQ
    # design provides; main-memory misses outlive the IQ (the load sits
    # in the LSQ/ROB once issued), so their overlap is governed by the
    # retirement window, not the scheduler.
    window_iq = min(max(_effective_window(params), 1.0), run_cap)
    window_mem = min(max(float(min(params.rob_size,
                                   params.effective_lsq_size)), 1.0),
                     run_cap)
    memory = params.memory
    mem_latency = (memory.l1d.hit_latency + memory.l2.hit_latency
                   + memory.main_memory_latency)
    l2_latency = memory.l1d.hit_latency + memory.l2.hit_latency
    mshr = memory.l1d.mshr_entries

    def stall(events: int, latency: int, window: float) -> float:
        if not events:
            return 0.0
        exposed = max(0.0, latency - window / ipc_core)
        if not exposed:
            return 0.0
        # Misses that fall inside one window of each other overlap; the
        # achievable MLP is their density over the window, floor 1,
        # capped by the miss-handling registers.
        mlp = min(float(mshr), max(1.0, events / n * window))
        return events / mlp * exposed

    # Streaming misses are pinned by pin bandwidth regardless of window.
    bandwidth_floor = (profile.mem_misses * memory.l1d.line_bytes
                       / memory.memory_bandwidth_bytes)
    stall_mem = max(stall(profile.mem_misses, mem_latency, window_mem),
                    bandwidth_floor)
    stall_l2 = stall(profile.l2_hits, l2_latency, window_iq)
    # Each mispredict pays the front-end refill plus the drain of the
    # speculated window behind the branch (interval analysis's recovery
    # ramp), which is why bigger windows gain sub-linearly on branchy code.
    stall_branch = profile.mispredicts * (params.dispatch_pipeline_depth + 1
                                          + window_iq / ipc_core)
    busy = n / ipc_core
    stall_total = stall_mem + stall_l2 + stall_branch
    if stall_mem + stall_l2 > max(busy, stall_branch):
        binding = "memory"
    elif stall_branch > max(busy, stall_mem + stall_l2):
        binding = "branch"
    return _Parts(busy=busy, stall=stall_total, bounds=bounds,
                  binding=binding, min_bound=min_bound)


def predict_ipc(profile: WorkloadProfile,
                params: ProcessorParams) -> SurrogatePrediction:
    """Uncalibrated analytical IPC for ``profile`` on ``params``."""
    n = max(profile.instructions, 1)
    parts = _predict_parts(profile, params)
    ipc = min(n / (parts.busy + parts.stall), parts.min_bound)
    return SurrogatePrediction(ipc=ipc, bounds=parts.bounds,
                               binding=parts.binding, uncertainty=0.35)


@dataclass
class _Anchor:
    core_scale: float      # correction on the busy term
    stall_scale: float     # correction on the stall terms
    window: float


class Surrogate:
    """Profile cache + calibration state for one grid's predictions.

    ``calibrate`` pins a (workload, IQ-kind) pair to one simulated
    result; subsequent ``predict`` calls for that pair scale by the
    anchor's simulated/predicted ratio and carry an uncertainty that
    grows with log2 distance from the anchor's effective window size.
    """

    def __init__(self, *, scale: int = 1,
                 max_instructions: Optional[int] = None) -> None:
        self.scale = scale
        self.max_instructions = max_instructions
        self._profiles: Dict[str, WorkloadProfile] = {}
        self._anchors: Dict[Tuple[str, str], _Anchor] = {}

    def profile(self, workload: str) -> WorkloadProfile:
        if workload not in self._profiles:
            self._profiles[workload] = collect_profile(
                workload, scale=self.scale,
                max_instructions=self.max_instructions)
        return self._profiles[workload]

    def calibrate(self, workload: str, params: ProcessorParams,
                  simulated_ipc: float) -> None:
        """Pin (workload, kind) to one simulated point, in cycle space.

        The stall terms are *physical* (they shrink as the window grows);
        scaling the whole prediction multiplicatively would scale them
        into larger configurations where they no longer exist.  Instead,
        attribute the anchor's residual cycles to the busy term when that
        is consistent (``core_scale``), falling back to a uniform cycle
        scale when the model overestimated the stalls.
        """
        profile = self.profile(workload)
        if simulated_ipc <= 0 or not profile.instructions:
            return
        parts = _predict_parts(profile, params)
        sim_cycles = profile.instructions / simulated_ipc
        residual_busy = sim_cycles - parts.stall
        if residual_busy >= 0.2 * parts.busy:
            core_scale = residual_busy / parts.busy
            stall_scale = 1.0
        else:
            core_scale = stall_scale = sim_cycles / (parts.busy + parts.stall)
        self._anchors[(workload, params.iq.kind)] = _Anchor(
            core_scale=min(20.0, max(0.05, core_scale)),
            stall_scale=min(20.0, max(0.05, stall_scale)),
            window=max(_effective_window(params), 1.0))

    def predict(self, workload: str,
                params: ProcessorParams) -> SurrogatePrediction:
        profile = self.profile(workload)
        prediction = predict_ipc(profile, params)
        anchor = self._anchors.get((workload, params.iq.kind))
        if anchor is None:
            return prediction
        parts = _predict_parts(profile, params)
        cycles = (parts.busy * anchor.core_scale
                  + parts.stall * anchor.stall_scale)
        n = max(profile.instructions, 1)
        prediction.ipc = min(n / max(cycles, 1e-9), parts.min_bound)
        distance = abs(math.log2(max(_effective_window(params), 1.0)
                                 / anchor.window))
        prediction.uncertainty = min(0.5, 0.10 + 0.15 * distance)
        prediction.calibrated = True
        return prediction


# --------------------------------------------------------------- validation
def default_grid() -> List[Tuple[str, ProcessorParams]]:
    """The grid the surrogate's accuracy contract is scored on:
    two sizes of each scalable kind plus the paper-adjacent baselines."""
    from repro.harness import configs
    return [("ideal-32", configs.ideal(32)),
            ("ideal-128", configs.ideal(128)),
            ("seg-128", configs.segmented(128, 64, "comb")),
            ("seg-512", configs.segmented(512, 128, "comb")),
            ("presched-24", configs.prescheduled(24)),
            ("dtrack-64", configs.delay_tracking(64)),
            ("dtrack-256", configs.delay_tracking(256))]


def validation_report(workloads: Sequence[str],
                      grid_configs: Sequence[Tuple[str, ProcessorParams]], *,
                      max_instructions: Optional[int] = None,
                      execution=None,
                      progress: Optional[Callable[[str], None]] = None
                      ) -> dict:
    """Predicted-vs-simulated IPC over a full grid (JSON-serializable).

    Every cell is simulated in full detail; the surrogate is calibrated
    on the per-(workload, kind) anchors and then scored on the remaining
    cells.  ``mean_abs_rel_error`` over non-anchor cells is the number
    the :data:`SURROGATE_ERROR_BOUND` contract covers (anchors match by
    construction and are excluded from the score).
    """
    cells: List[Cell] = [(workload, label, params)
                         for workload in workloads
                         for label, params in grid_configs]
    simulated = run_grid(cells, max_instructions=max_instructions,
                         execution=execution, progress=progress)
    surrogate = Surrogate(max_instructions=max_instructions)
    anchor_for: Dict[Tuple[str, str], Tuple[str, str, float]] = {}
    for (workload, label, params), result in zip(cells, simulated):
        key = (workload, params.iq.kind)
        current = anchor_for.get(key)
        if current is None or params.iq.size < current[2]:
            anchor_for[key] = (workload, label, params.iq.size)
    anchors = {(workload, label)
               for workload, label, _size in anchor_for.values()}
    for (workload, label, params), result in zip(cells, simulated):
        if (workload, label) in anchors:
            surrogate.calibrate(workload, params, result.ipc)
    rows = []
    errors = []
    for (workload, label, params), result in zip(cells, simulated):
        prediction = surrogate.predict(workload, params)
        rel_error = (abs(prediction.ipc - result.ipc) / result.ipc
                     if result.ipc else 0.0)
        is_anchor = (workload, label) in anchors
        if not is_anchor:
            errors.append(rel_error)
        rows.append({
            "workload": workload, "config": label,
            "model": params.iq.kind, "anchor": is_anchor,
            "simulated_ipc": round(result.ipc, 4),
            "predicted_ipc": round(prediction.ipc, 4),
            "rel_error": round(rel_error, 4),
            "uncertainty": round(prediction.uncertainty, 4),
            "binding": prediction.binding,
        })
    mean_error = sum(errors) / len(errors) if errors else 0.0
    max_error = max(errors) if errors else 0.0
    return {
        "schema": 1,
        "error_bound": SURROGATE_ERROR_BOUND,
        "cells": rows,
        "scored_cells": len(errors),
        "mean_abs_rel_error": round(mean_error, 4),
        "max_abs_rel_error": round(max_error, 4),
        "within_bound": mean_error <= SURROGATE_ERROR_BOUND,
    }


def render_report(report: dict) -> str:
    """Human-readable table for ``python -m repro surrogate``."""
    from repro.harness.reporting import format_table
    rows = [[row["workload"], row["config"], row["model"],
             "yes" if row["anchor"] else "",
             row["simulated_ipc"], row["predicted_ipc"],
             f"{row['rel_error'] * 100:.1f}%", row["binding"]]
            for row in report["cells"]]
    table = format_table(
        ["benchmark", "config", "model", "anchor", "sim ipc",
         "pred ipc", "error", "binding"], rows,
        title="surrogate validation: predicted vs simulated IPC")
    verdict = "PASS" if report["within_bound"] else "FAIL"
    summary = (f"mean |error| {report['mean_abs_rel_error'] * 100:.1f}% "
               f"(max {report['max_abs_rel_error'] * 100:.1f}%) over "
               f"{report['scored_cells']} non-anchor cells; bound "
               f"{report['error_bound'] * 100:.0f}% -> {verdict}")
    return f"{table}\n{summary}"
