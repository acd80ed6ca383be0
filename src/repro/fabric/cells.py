"""Cell primitives shared by every execution backend.

A *cell* is one independent simulation: a :class:`RunSpec` carries
everything a worker — a local pool process or a worker on another
machine — needs to reproduce it bit-identically.  This module also owns
the worker entry points (module-level, picklable, so they survive the
``spawn`` start method) and the JSON wire form the ``ssh`` backend ships
cells in.
"""

from __future__ import annotations

import dataclasses
import os
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

from repro.common.params import (BranchPredictorParams, CacheParams,
                                 IQParams, MemoryParams, ProcessorParams)
from repro.harness.runner import RunResult


@dataclass(frozen=True)
class RunSpec:
    """One simulation cell: everything a worker needs to reproduce it."""

    workload: str
    params: ProcessorParams
    config_label: str = ""
    seed: int = 0                     # reserved for seeded workloads
    max_instructions: Optional[int] = None
    scale: int = 1
    max_cycles: int = 5_000_000
    warm_code: bool = True
    #: Optional :class:`repro.obs.MetricsConfig` (or interval int); a
    #: metered cell always simulates — the cache is never consulted,
    #: because the time series is part of the result.
    metrics: Optional[object] = None

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


# ----------------------------------------------------------- wire format --
def params_to_dict(params: ProcessorParams) -> dict:
    """JSON-ready form of a parameter tree (inverse of
    :func:`params_from_dict`)."""
    return dataclasses.asdict(params)


def params_from_dict(data: dict) -> ProcessorParams:
    """Rebuild a :class:`ProcessorParams` from :func:`params_to_dict`.

    Field-exact: both ends must run the same source version (the ``ssh``
    backend's hello handshake checks the source token), so an unknown
    field is a hard error rather than something to silently drop.
    """
    data = dict(data)
    data["iq"] = IQParams(**data["iq"])
    memory = dict(data["memory"])
    for level in ("l1i", "l1d", "l2"):
        memory[level] = CacheParams(**memory[level])
    data["memory"] = MemoryParams(**memory)
    data["branch"] = BranchPredictorParams(**data["branch"])
    return ProcessorParams(**data)


def spec_to_dict(spec: RunSpec) -> dict:
    """JSON wire form of a cell (``metrics`` is not serializable and is
    rejected by backends that ship cells off-host)."""
    return {"workload": spec.workload,
            "params": params_to_dict(spec.params),
            "config_label": spec.config_label,
            "seed": spec.seed,
            "max_instructions": spec.max_instructions,
            "scale": spec.scale,
            "max_cycles": spec.max_cycles,
            "warm_code": spec.warm_code}


def spec_from_dict(data: dict) -> RunSpec:
    data = dict(data)
    data["params"] = params_from_dict(data["params"])
    return RunSpec(**data)


def result_to_dict(result: RunResult) -> dict:
    return {"workload": result.workload, "config": result.config,
            "ipc": result.ipc, "cycles": result.cycles,
            "instructions": result.instructions, "stats": result.stats,
            "metrics": result.metrics}


def result_from_dict(data: dict) -> RunResult:
    return RunResult(workload=data["workload"], config=data["config"],
                     ipc=data["ipc"], cycles=data["cycles"],
                     instructions=data["instructions"],
                     stats=data.get("stats") or {},
                     metrics=data.get("metrics"))


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
                   warm_code=spec.warm_code,
                   metrics=spec.metrics)


def _guarded_call(payload: Tuple[Callable, object, str]):
    """Run one task, converting any exception into a CellError record."""
    func, item, label = payload
    try:
        return func(item)
    except Exception as exc:            # noqa: BLE001 — surfaced per-cell
        return CellError(label=label,
                         error=f"{type(exc).__name__}: {exc}",
                         details=traceback.format_exc())


def _handle_worker(conn, func: Callable, item, label: str) -> None:
    """Entry point of a dedicated-process handle worker.

    ``func(item, emit)`` runs with ``emit(dict)`` streaming progress
    payloads back over the pipe; the final message is ``("done", value)``
    or ``("error", CellError)``.
    """
    def emit(payload: dict) -> None:
        try:
            conn.send(("tick", payload))
        except (OSError, ValueError):
            pass                         # parent gone; keep computing

    try:
        conn.send(("done", func(item, emit)))
    except Exception as exc:            # noqa: BLE001 — surfaced per-cell
        try:
            conn.send(("error", CellError(
                label=label, error=f"{type(exc).__name__}: {exc}",
                details=traceback.format_exc())))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


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


#: Functions the remote worker may be asked to run by qualified name
#: (``module:function``).  Off-host task submission is restricted to
#: this allowlist — the wire protocol must never become an arbitrary
#: code-execution channel, even between trusting hosts.
REMOTE_TASKS = {
    "repro.service.jobs:execute_job",
}


def task_name(func: Callable) -> str:
    return f"{func.__module__}:{func.__qualname__}"


def resolve_remote_task(name: str) -> Callable:
    if name not in REMOTE_TASKS:
        raise ValueError(f"task {name!r} is not a registered remote task")
    module_name, func_name = name.split(":", 1)
    import importlib
    return getattr(importlib.import_module(module_name), func_name)
