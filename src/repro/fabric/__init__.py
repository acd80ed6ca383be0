"""repro.fabric — the pluggable execution layer.

Cells (:class:`RunSpec`) are submitted to an :class:`ExecutionBackend`
chosen by name, and the :class:`Executor` driver layers caching,
journaled resume, and deterministic ordering on top of whichever
backend runs the work.  :class:`ExecutionConfig` is the one spelling of
worker count, cache, and placement every entry point accepts.

Built-in backends (see ``docs/fabric.md``):

``local-process``
    The default: a spawn-safe process pool on this host, running cells
    in-process when one worker is asked for (or the process may use
    only one CPU) and falling back to serial when a payload will not
    pickle.
``ssh``
    Cells shipped as JSON to worker processes over stdin/stdout —
    ``ssh:hosta,hostb`` for real hosts, ``ssh:local`` for the
    transport-free form CI exercises — with worker ResultCache contents
    merged back afterwards.  The only off-host path.
"""

from repro.fabric.base import (ExecutionBackend, ExecutionConfig,
                               backend_names, create_backend,
                               parse_backend_spec, register_backend)
from repro.fabric.cells import (CellError, CellResult, RunSpec,
                                default_jobs, raise_on_errors, relabel)
from repro.fabric.executor import Executor
from repro.fabric.handles import CellHandle, CompletedHandle, FutureHandle
from repro.fabric.journal import SweepJournal

# Importing the backend modules registers them.
from repro.fabric.local import LocalProcessBackend  # noqa: E402
from repro.fabric.ssh import SSHBackend             # noqa: E402

__all__ = [
    "CellError", "CellHandle", "CellResult", "CompletedHandle",
    "ExecutionBackend", "ExecutionConfig", "Executor", "FutureHandle",
    "LocalProcessBackend", "RunSpec", "SSHBackend", "SweepJournal",
    "backend_names", "create_backend", "default_jobs",
    "parse_backend_spec", "raise_on_errors", "register_backend",
    "relabel",
]
