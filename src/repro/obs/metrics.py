"""Live metrics: periodic samplers streaming windowed time series.

Where :mod:`repro.obs.events` captures *every* microarchitectural event,
the metrics layer takes a cheap reading every ``interval`` cycles —
windowed IPC, issue-slot utilization, per-segment IQ occupancy,
chain-wire utilization, ROB/LSQ pressure — and accumulates plain time
series.  The report lands in ``RunResult.metrics`` and as counter
tracks in the Chrome trace.

Like tracing, metrics are zero-overhead when off: the processor holds a
``None`` collector and the per-cycle cost is one attribute check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class MetricsConfig:
    """Knobs for one run's metrics collection."""

    #: Cycles between samples.  Each sample reads a handful of occupancy
    #: counters; 100 keeps the overhead well under a percent.
    interval: int = 100

    def validate(self) -> None:
        if self.interval < 1:
            raise ConfigurationError("metrics interval must be >= 1 cycle")


class MetricsCollector:
    """Samples a :class:`~repro.pipeline.processor.Processor` periodically.

    The processor calls :meth:`sample` whenever ``cycle >= next_cycle``;
    everything else is bookkeeping.  Windowed rates (IPC, issue
    utilization) are deltas over the sampling window, occupancies are
    point-in-time readings.
    """

    def __init__(self, config: Union[MetricsConfig, int, None] = None
                 ) -> None:
        if config is None:
            config = MetricsConfig()
        elif isinstance(config, int):
            config = MetricsConfig(interval=config)
        config.validate()
        self.config = config
        self.interval = config.interval
        #: Next cycle at which the processor should call :meth:`sample`.
        #: The first sample lands after one full window so every windowed
        #: rate has a well-defined denominator.
        self.next_cycle = self.interval
        self.cycles: List[int] = []
        self.series: Dict[str, List] = {}
        self._prev_cycle = 0
        self._prev_committed = 0
        self._prev_issued = 0.0

    # ----------------------------------------------------------- sample --
    def sample(self, processor, now: int) -> None:
        """Take one reading (called from ``Processor.step``)."""
        self.next_cycle = now + self.interval
        window = max(1, now - self._prev_cycle)
        stats = processor.stats
        issued = stats.get("iq.issued") if "iq.issued" in stats else 0.0

        point = {
            "ipc": (processor.committed - self._prev_committed) / window,
            "issue.utilization": ((issued - self._prev_issued)
                                  / (window * processor.params.issue_width)),
            "iq.occupancy": processor.iq.occupancy,
            "rob.occupancy": sum(len(rob) for rob in processor.robs),
            "lsq.occupancy": processor.lsq.occupancy,
        }
        iq = processor.iq
        chains = getattr(iq, "chains", None)
        if chains is not None:
            point["chains.active"] = chains.active_count
        if hasattr(iq, "segment_occupancies"):
            point["iq.segments"] = iq.segment_occupancies()

        self.cycles.append(now)
        for name, value in point.items():
            self.series.setdefault(name, []).append(value)
        self._prev_cycle = now
        self._prev_committed = processor.committed
        self._prev_issued = issued

    # ----------------------------------------------------------- report --
    @property
    def samples(self) -> int:
        return len(self.cycles)

    def segment_samples(self) -> List[List[int]]:
        """The per-segment occupancy vector series (for the heatmap)."""
        return list(self.series.get("iq.segments", []))

    def to_dict(self) -> Dict:
        """JSON-safe report: sample timestamps plus every series."""
        series: Dict[str, List] = {}
        for name, values in sorted(self.series.items()):
            if values and isinstance(values[0], (list, tuple)):
                series[name] = [list(v) for v in values]
            else:
                series[name] = [round(float(v), 4) for v in values]
        return {"interval": self.interval, "samples": self.samples,
                "cycles": list(self.cycles), "series": series}


def summarize(report: Optional[Dict]) -> Dict[str, float]:
    """Mean of every scalar series: a one-number digest per series."""
    if not report:
        return {}
    out: Dict[str, float] = {}
    for name, values in report.get("series", {}).items():
        if values and not isinstance(values[0], (list, tuple)):
            out[name] = round(sum(values) / len(values), 4)
    return out
