"""Generic parameter-grid sweeps with tabular/CSV output.

A :class:`Sweep` crosses workloads with named configurations, runs every
cell once, and renders the grid — the shape behind Figure 3 and most of
the ablations, packaged for users exploring their own design points::

    from repro.harness import configs
    from repro.harness.sweep import Sweep

    sweep = Sweep(workloads=["swim", "twolf"])
    for size in (32, 128, 512):
        sweep.add_config(f"ideal-{size}", configs.ideal(size))
        sweep.add_config(f"seg-{size}", configs.segmented(size, 128, "comb"))
    grid = sweep.run()
    print(grid.render())
    grid.write_csv("sweep.csv")
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.params import ProcessorParams
from repro.fabric.executor import ExecutionConfig
from repro.harness.reporting import format_table
from repro.harness.runner import RunResult
from repro.workloads import WORKLOADS


@dataclass
class SweepGrid:
    """Results of a sweep: results[workload][config_label].

    ``models`` maps each config label to its IQ model kind; rendered and
    CSV headers carry the kind (``"seg-128 [segmented]"``) so grids that
    mix several IQ designs stay unambiguous.
    """

    workloads: List[str]
    config_labels: List[str]
    results: Dict[str, Dict[str, RunResult]]
    metric: str = "ipc"
    models: Dict[str, str] = field(default_factory=dict)

    def column_key(self, label: str) -> str:
        """The config label, annotated with its IQ model kind."""
        kind = self.models.get(label)
        return f"{label} [{kind}]" if kind else label

    def value(self, workload: str, label: str) -> float:
        result = self.results[workload][label]
        if self.metric == "ipc":
            return result.ipc
        if self.metric == "cycles":
            return float(result.cycles)
        try:
            return result.stats[self.metric]
        except KeyError:
            available = ["ipc", "cycles"] + sorted(result.stats)
            raise KeyError(
                f"unknown metric {self.metric!r}; available metrics: "
                f"{', '.join(available)}") from None

    def render(self, metric: Optional[str] = None) -> str:
        metric = metric or self.metric
        saved, self.metric = self.metric, metric
        try:
            rows = [[workload] + [round(self.value(workload, label), 3)
                                  for label in self.config_labels]
                    for workload in self.workloads]
        finally:
            self.metric = saved
        headers = ["benchmark"] + [self.column_key(label)
                                   for label in self.config_labels]
        return format_table(headers, rows, title=f"sweep: {metric}")

    def write_csv(self, path: str, metric: Optional[str] = None) -> None:
        metric = metric or self.metric
        saved, self.metric = self.metric, metric
        try:
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["benchmark"]
                                + [self.column_key(label)
                                   for label in self.config_labels])
                for workload in self.workloads:
                    writer.writerow(
                        [workload] + [self.value(workload, label)
                                      for label in self.config_labels])
        finally:
            self.metric = saved

    def best_config(self, workload: str) -> str:
        return max(self.config_labels,
                   key=lambda label: self.value(workload, label))


class Sweep:
    """Builds and executes a workload x configuration grid."""

    def __init__(self, workloads: Sequence[str],
                 max_instructions: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None) -> None:
        unknown = set(workloads) - set(WORKLOADS)
        if unknown:
            raise KeyError(f"unknown workloads: {sorted(unknown)}")
        self.workloads = list(workloads)
        self.max_instructions = max_instructions
        self.progress = progress
        self._configs: List[tuple] = []

    def add_config(self, label: str, params: ProcessorParams) -> "Sweep":
        if any(existing == label for existing, _ in self._configs):
            raise ValueError(f"duplicate config label {label!r}")
        params.validate()
        self._configs.append((label, params))
        return self

    def run(self, metric: str = "ipc", *,
            execution: Optional[ExecutionConfig] = None) -> SweepGrid:
        """Run every (workload, config) cell and collect the grid.

        ``execution`` is an optional
        :class:`~repro.fabric.ExecutionConfig` selecting the worker
        count, result cache, and (optionally) a resumable sweep journal.
        The default runs serially without a cache.  ``jobs`` > 1 fans
        the cells out over a process pool (cells are independent;
        results are deterministic and ordered either way); cached cells
        skip simulation entirely.
        """
        if not self._configs:
            raise ValueError("no configurations added")
        cells = [(workload, label, params)
                 for workload in self.workloads
                 for label, params in self._configs]
        outcomes = run_grid(cells, max_instructions=self.max_instructions,
                            execution=execution, progress=self.progress)
        results: Dict[str, Dict[str, RunResult]] = {
            workload: {} for workload in self.workloads}
        for (workload, label, _params), result in zip(cells, outcomes):
            results[workload][label] = result
        return SweepGrid(
            self.workloads, [label for label, _ in self._configs], results,
            metric,
            models={label: params.iq.kind for label, params in self._configs})


#: One grid cell: (workload, config label, processor parameters).
Cell = Tuple[str, str, ProcessorParams]


def run_grid(cells: Sequence[Cell], *,
             max_instructions: Optional[int] = None,
             budgets: Optional[Dict[str, int]] = None,
             execution: Optional[ExecutionConfig] = None,
             progress: Optional[Callable[[str], None]] = None
             ) -> List[RunResult]:
    """Run ``(workload, label, params)`` cells; results in input order.

    Every grid in the package (sweeps, experiments, the surrogate's
    validation report) runs through here.  A cell's instruction budget
    is ``budgets[workload]`` when given, else ``max_instructions``.
    ``execution`` places the cells; ``jobs=None`` runs them serially.
    ``progress(line)`` hears one ``workload/label`` line per cell as it
    starts (or as its cached result is served).  Raises
    :class:`RuntimeError` when any cell fails.
    """
    from repro.fabric import Executor, RunSpec, raise_on_errors
    if execution is None:
        execution = ExecutionConfig()
    execution = dataclasses.replace(execution,
                                    jobs=execution.resolve_jobs(1))

    def budget(workload: str) -> Optional[int]:
        if budgets is not None:
            return budgets.get(workload, max_instructions)
        return max_instructions

    results = Executor(execution).run_specs(
        [RunSpec(workload, params, config_label=label,
                 max_instructions=budget(workload))
         for workload, label, params in cells],
        progress=progress)
    raise_on_errors(results, "grid")
    return results
