"""The ``local-process`` backend: a spawn-safe process pool on this host.

The one way cells and generic calls execute: a
:class:`concurrent.futures.ProcessPoolExecutor`
(:class:`LocalProcessBackend`).  The pool degrades rather than fails:
``jobs=1`` runs in-process, a payload that fails to pickle or a pool
that cannot start falls back to serial, a pool broken by a dead worker
is replaced at the next submission, and a worker that raises (or dies)
surfaces as a per-cell :class:`~repro.fabric.cells.CellError`, never a
hung sweep.  Results are bit-identical to serial execution by
construction (workers share no state; every cell rebuilds its program
from the workload registry).
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional

from repro.fabric.cells import (RunSpec, _execute_spec, _guarded_call,
                                default_jobs)
from repro.fabric.handles import CompletedHandle, FutureHandle


class LocalProcessBackend:
    """Single-host process pool that runs cells and generic calls."""

    def __init__(self, *, jobs: Optional[int] = None,
                 start_method: Optional[str] = None) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_broken = False
        #: True when any cell degraded to in-process serial execution.
        self.fell_back_to_serial = False

    def submit(self, spec: RunSpec):
        """Start one simulation cell; returns a handle immediately."""
        return self.submit_call(_execute_spec, spec, spec.label)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def submit_call(self, func: Callable, item, label: str):
        """Start ``func(item)`` on the pool; a handle whose result is the
        return value or a :class:`~repro.fabric.cells.CellError`."""
        payload = (func, item, label)
        if self.jobs <= 1:               # serial by request, not fallback
            return CompletedHandle(label, _guarded_call(payload))
        try:
            pickle.dumps(payload)
        except Exception:
            self.fell_back_to_serial = True
            return CompletedHandle(label, _guarded_call(payload))
        for _attempt in range(2):
            pool = self._ensure_pool()
            if pool is None:
                break
            try:
                return FutureHandle(label, pool.submit(_guarded_call,
                                                       payload))
            except BrokenProcessPool:
                self.close()             # a worker died: start a new pool
            except (RuntimeError, OSError):
                self._pool_broken = True
                break
        self.fell_back_to_serial = True
        return CompletedHandle(label, _guarded_call(payload))

    # --------------------------------------------------------- internals --
    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self._pool is None and not self._pool_broken:
            context = (multiprocessing.get_context(self.start_method)
                       if self.start_method else None)
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                                 mp_context=context)
            except (OSError, BrokenProcessPool):
                self._pool_broken = True
        return self._pool

