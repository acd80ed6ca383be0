"""Programmatic definitions of the paper's experiments.

Each experiment knows which (workload, configuration) grid it needs, how
to render its report, and how to serialize its raw data.  The pytest
benches and the ``python -m repro reproduce`` CLI both drive these, so a
user can regenerate any table or figure from a script::

    from repro.harness.experiments import EXPERIMENTS

    report, data = EXPERIMENTS["table2"].run(workloads=["swim", "twolf"])
    print(report)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness import configs
from repro.harness.reporting import (ascii_series_plot, figure2_report,
                                     format_table, table2_report)
from repro.harness.runner import RunResult
from repro.harness.sweep import run_grid
from repro.workloads import WORKLOADS

VARIANTS = ("base", "hmp", "lrp", "comb")
CHAIN_SETTINGS = ((None, "unlimited"), (128, "128 chains"),
                  (64, "64 chains"))
FIG3_SIZES = (32, 64, 128, 256, 512)
PRESCHED_LINES = (8, 24, 56, 120)


class ExperimentRunner:
    """Caches simulation runs across one experiment invocation.

    ``execution`` (an :class:`~repro.fabric.ExecutionConfig`) places
    every cell: ``jobs`` sets the worker count, ``cache`` threads an
    on-disk :class:`~repro.harness.cache.ResultCache` through every cell
    so repeated invocations skip simulation entirely, and ``journal``
    records each cell's state.  :meth:`prefetch` runs a builder's whole
    grid as one batch; a cell requested outside it runs on its own,
    under the same ``execution``.
    """

    def __init__(self, workloads: Sequence[str],
                 budget_factor: float = 1.0,
                 progress: Optional[Callable[[str], None]] = None, *,
                 execution=None) -> None:
        unknown = set(workloads) - set(WORKLOADS)
        if unknown:
            raise KeyError(f"unknown workloads: {sorted(unknown)}")
        self.workloads = list(workloads)
        self.budget_factor = budget_factor
        self.progress = progress
        self.execution = execution
        self._cache: Dict[Tuple[str, str], RunResult] = {}
        self._recording: Optional[Dict[Tuple[str, str], Callable]] = None

    def _budget(self, workload: str) -> int:
        spec = WORKLOADS[workload]
        return max(2_000, int(spec.default_instructions
                              * self.budget_factor))

    def _run_grid(self, cells) -> List[RunResult]:
        return run_grid(cells,
                        budgets={workload: self._budget(workload)
                                 for workload, _key, _params in cells},
                        execution=self.execution, progress=self.progress)

    def run(self, workload: str, config_key: str,
            params_factory) -> RunResult:
        key = (workload, config_key)
        if key in self._cache:
            return self._cache[key]
        if self._recording is not None:
            # Planning pass: record the cell, hand back a placeholder.
            self._recording.setdefault(key, params_factory)
            return RunResult(workload=workload, config=config_key,
                             ipc=0.0, cycles=0, instructions=0)
        [self._cache[key]] = self._run_grid(
            [(workload, config_key, params_factory())])
        return self._cache[key]

    def prefetch(self, build: Callable[["ExperimentRunner"], object]) -> None:
        """Discover the grid ``build`` will request, then run it as one
        batch.

        The builder runs once against placeholder results purely to record
        which cells it asks for, so a builder must request every cell
        unconditionally: a cell requested only behind a test of another
        result (a zero guard, say) is missed here and runs later on its
        own.  Builders only combine results arithmetically, with
        zero-guarded divisions, so placeholders are safe.  The recorded
        cells then run through one :func:`~repro.harness.sweep.run_grid`
        batch under ``execution``.
        """
        self._recording = {}
        try:
            build(self)
            plan = self._recording
        finally:
            self._recording = None
        cells = [(workload, config_key, factory())
                 for (workload, config_key), factory in plan.items()]
        for (workload, config_key, _params), result in zip(
                cells, self._run_grid(cells)):
            self._cache[(workload, config_key)] = result

    def ideal(self, workload: str, size: int) -> RunResult:
        return self.run(workload, f"ideal-{size}",
                        lambda: configs.ideal(size))

    def segmented(self, workload: str, size: int, chains,
                  variant: str) -> RunResult:
        chain_key = "unl" if chains is None else str(chains)
        return self.run(workload, f"seg-{size}-{chain_key}-{variant}",
                        lambda: configs.segmented(size, chains, variant))

    def prescheduled(self, workload: str, lines: int) -> RunResult:
        return self.run(workload, f"presched-{lines}",
                        lambda: configs.prescheduled(lines))


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    name: str
    title: str
    build: Callable[[ExperimentRunner], Tuple[str, dict]]

    def run(self, workloads: Optional[Sequence[str]] = None,
            budget_factor: float = 1.0,
            progress: Optional[Callable[[str], None]] = None, *,
            execution=None) -> Tuple[str, dict]:
        """Returns (rendered report, raw data dict).

        The experiment's whole grid runs as one planned batch (see
        :meth:`ExperimentRunner.prefetch`).  ``execution`` is an optional
        :class:`~repro.fabric.ExecutionConfig` placing that batch:
        ``jobs`` > 1 fans it out in parallel, ``cache`` reuses results
        across invocations (see :mod:`repro.harness.cache`), and
        ``journal`` records each cell's state.
        """
        runner = ExperimentRunner(workloads or sorted(WORKLOADS),
                                  budget_factor, progress,
                                  execution=execution)
        runner.prefetch(self.build)
        return self.build(runner)


# ------------------------------------------------------------- builders --
def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 for a zero denominator.  Both
    results are requested before the guard, so a planning pass sees
    every cell."""
    return numerator / denominator if denominator else 0.0


def _build_table2(runner: ExperimentRunner) -> Tuple[str, dict]:
    results = {workload: {variant: runner.segmented(workload, 512, None,
                                                    variant)
                          for variant in VARIANTS}
               for workload in runner.workloads}
    data = {workload: {variant: {"avg": results[workload][variant].chains_avg,
                                 "peak": results[workload][variant].chains_peak}
                       for variant in VARIANTS}
            for workload in runner.workloads}
    return table2_report(results), data


def _build_figure2(runner: ExperimentRunner) -> Tuple[str, dict]:
    rel: dict = {}
    for workload in runner.workloads:
        ideal = runner.ideal(workload, 512)
        rel[workload] = {}
        for chains, label in CHAIN_SETTINGS:
            rel[workload][label] = {
                variant: _ratio(runner.segmented(workload, 512, chains,
                                                 variant).ipc, ideal.ipc)
                for variant in VARIANTS}
    return figure2_report(rel), rel


def _build_figure3(runner: ExperimentRunner) -> Tuple[str, dict]:
    series: dict = {}
    for workload in runner.workloads:
        per = {"ideal": {}, "seg-128ch": {}, "seg-64ch": {}, "presched": {}}
        for size in FIG3_SIZES:
            per["ideal"][size] = runner.ideal(workload, size).ipc
            per["seg-128ch"][size] = runner.segmented(
                workload, size, 128, "comb").ipc
            per["seg-64ch"][size] = runner.segmented(
                workload, size, 64, "comb").ipc
        for lines in PRESCHED_LINES:
            per["presched"][32 + 12 * lines] = runner.prescheduled(
                workload, lines).ipc
        series[workload] = per
    blocks = [ascii_series_plot(series[w],
                                title=f"Figure 3 ({w}): IPC vs queue size")
              for w in sorted(series)]
    return "\n".join(blocks), series


def _build_headline(runner: ExperimentRunner) -> Tuple[str, dict]:
    rows = []
    data = {}
    for workload in runner.workloads:
        conv32 = runner.ideal(workload, 32)
        ideal512 = runner.ideal(workload, 512)
        seg = runner.segmented(workload, 512, 128, "comb")
        gain = _ratio(seg.ipc, conv32.ipc)
        fraction = _ratio(seg.ipc, ideal512.ipc)
        data[workload] = {"gain_over_32": gain,
                          "fraction_of_ideal": fraction}
        rows.append([workload, round(conv32.ipc, 3), round(seg.ipc, 3),
                     f"{100 * (gain - 1):+.0f}%", f"{100 * fraction:.0f}%"])
    report = format_table(
        ["benchmark", "conv-32 IPC", "seg-512/128 IPC", "gain", "% ideal"],
        rows, title="Headline claims (abstract / section 1)")
    return report, data


EXPERIMENTS: Dict[str, Experiment] = {
    "table2": Experiment(
        "table2", "Table 2: chain usage (512 entries, unlimited chains)",
        _build_table2),
    "figure2": Experiment(
        "figure2", "Figure 2: relative performance at 512 entries",
        _build_figure2),
    "figure3": Experiment(
        "figure3", "Figure 3: IPC across IQ sizes", _build_figure3),
    "headline": Experiment(
        "headline", "Abstract headline claims", _build_headline),
}


def save_data(data: dict, path: str) -> None:
    """Serialize an experiment's raw data as JSON."""
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True, default=str)
