"""Run-result record and workload resolution.

All simulation goes through :func:`repro.api.run`, the single entry
point that also threads tracing, metrics, and result caching;
this module holds the :class:`RunResult` value it returns and the
workload-name resolver the harness shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.workloads.kernels import WORKLOADS, WorkloadSpec


@dataclass
class RunResult:
    """Everything a bench needs from one simulation."""

    workload: str
    config: str
    ipc: float
    cycles: int
    instructions: int
    stats: Dict[str, float] = field(default_factory=dict)
    #: Windowed time-series report from :class:`repro.obs.MetricsCollector`
    #: (``None`` unless the run was started with ``metrics=``).
    metrics: Optional[Dict] = None

    @property
    def chains_avg(self) -> float:
        return self.stats.get("chains.in_use.mean", 0.0)

    @property
    def chains_peak(self) -> float:
        return self.stats.get("chains.in_use.peak", 0.0)

    @property
    def branch_accuracy(self) -> float:
        lookups = (self.stats.get("bpred.correct", 0)
                   + self.stats.get("bpred.mispredicts", 0))
        return self.stats.get("bpred.correct", 0) / lookups if lookups else 0.0

    def __str__(self) -> str:
        return (f"{self.workload}/{self.config}: IPC={self.ipc:.3f} "
                f"({self.instructions} insts, {self.cycles} cycles)")


def resolve_workload(workload: Union[str, WorkloadSpec]) -> WorkloadSpec:
    if isinstance(workload, WorkloadSpec):
        return workload
    try:
        return WORKLOADS[workload]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown workload {workload!r}; known: {known}")
