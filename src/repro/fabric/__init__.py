"""repro.fabric — the execution layer.

Cells (:class:`RunSpec`) run on :class:`LocalProcessBackend`, a
spawn-safe process pool on this host that runs cells in-process when
one worker is asked for (or the process may use only one CPU) and falls
back to serial when a payload will not pickle.  The :class:`Executor`
driver layers caching, journaled resume, and deterministic ordering on
top of it, and :class:`ExecutionConfig` is the one spelling of worker
count, cache, and journal every entry point accepts.  See
``docs/fabric.md``.
"""

from repro.fabric.cells import (CellError, CellResult, RunSpec,
                                default_jobs, raise_on_errors, relabel)
from repro.fabric.executor import ExecutionConfig, Executor
from repro.fabric.handles import CompletedHandle, FutureHandle
from repro.fabric.journal import SweepJournal
from repro.fabric.local import LocalProcessBackend

__all__ = [
    "CellError", "CellResult", "CompletedHandle",
    "ExecutionConfig", "Executor", "FutureHandle", "LocalProcessBackend",
    "RunSpec", "SweepJournal", "default_jobs", "raise_on_errors",
    "relabel",
]
