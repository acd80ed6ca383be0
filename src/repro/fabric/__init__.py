"""repro.fabric — the execution layer.

Cells (:class:`RunSpec`) run through :class:`Executor`, which drives a
spawn-safe process pool on this host, one per batch: in-process when
one worker is asked for (or the process may use only one CPU), serial
when a payload will not pickle.  It layers caching, journaled resume,
and deterministic ordering on top, and :class:`ExecutionConfig` is the
one spelling of worker count, cache, and journal every entry point
accepts.  See ``docs/fabric.md``.
"""

from repro.fabric.cells import (CellError, CellResult, RunSpec,
                                default_jobs, raise_on_errors, relabel)
from repro.fabric.executor import ExecutionConfig, Executor
from repro.fabric.journal import SweepJournal

__all__ = [
    "CellError", "CellResult", "ExecutionConfig", "Executor", "RunSpec",
    "SweepJournal", "default_jobs", "raise_on_errors", "relabel",
]
