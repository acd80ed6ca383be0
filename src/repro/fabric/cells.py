"""Cell primitives of the execution fabric.

A *cell* is one independent simulation: a :class:`RunSpec` carries
everything a pool worker needs to reproduce it bit-identically.  This
module also owns the worker entry points (module-level, picklable, so
they survive the ``spawn`` start method).
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

from repro.common.params import ProcessorParams
from repro.harness.runner import RunResult


@dataclass(frozen=True)
class RunSpec:
    """One simulation cell: everything a worker needs to reproduce it."""

    workload: str
    params: ProcessorParams
    config_label: str = ""
    max_instructions: Optional[int] = None
    scale: int = 1
    max_cycles: int = 5_000_000
    warm_code: bool = True

    def cache_kwargs(self) -> dict:
        return {"max_instructions": self.max_instructions,
                "scale": self.scale, "max_cycles": self.max_cycles,
                "warm_code": self.warm_code}

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.config_label or self.params.iq.kind}"


@dataclass
class CellError:
    """A cell whose worker raised; carries enough context to report it."""

    label: str
    error: str
    details: str = field(default="", repr=False)

    def __str__(self) -> str:
        return f"{self.label}: {self.error}"


CellResult = Union[RunResult, CellError]


def default_jobs() -> int:
    """Worker count when the caller does not specify one: the CPUs this
    process may run on (its affinity mask where the platform has one),
    so a process pinned to one CPU runs its cells in-process."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


# ------------------------------------------------------- worker functions --
def _execute_spec(spec: RunSpec) -> RunResult:
    # Imported lazily: this runs inside spawn-started workers, where the
    # cheapest import footprint wins.
    from repro import api
    return api.run(spec.params, spec.workload,
                   config_label=spec.config_label,
                   scale=spec.scale,
                   max_instructions=spec.max_instructions,
                   max_cycles=spec.max_cycles,
                   warm_code=spec.warm_code)


def _guarded_call(payload: Tuple[Callable, object, str]):
    """Run one task, converting any exception into a CellError record."""
    func, item, label = payload
    try:
        return func(item)
    except Exception as exc:            # noqa: BLE001 — surfaced per-cell
        return CellError(label=label,
                         error=f"{type(exc).__name__}: {exc}",
                         details=traceback.format_exc())


def relabel(result: RunResult, config_label: str) -> RunResult:
    """The same simulation under the display label the caller asked for."""
    if not config_label or result.config == config_label:
        return result
    return RunResult(workload=result.workload, config=config_label,
                     ipc=result.ipc, cycles=result.cycles,
                     instructions=result.instructions, stats=result.stats,
                     metrics=result.metrics)


def raise_on_errors(results, what: str) -> None:
    """Raise a RuntimeError summarizing any failed cells."""
    errors = [r for r in results if isinstance(r, CellError)]
    if not errors:
        return
    summary = "; ".join(str(e) for e in errors[:3])
    if len(errors) > 3:
        summary += f"; ... ({len(errors) - 3} more)"
    raise RuntimeError(f"{len(errors)} of {len(results)} {what} cells "
                       f"failed: {summary}")

