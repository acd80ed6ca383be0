"""Cell handles: the uniform async surface of submitted work.

``LocalProcessBackend.submit`` / ``submit_call`` hand back a handle the
:class:`~repro.fabric.executor.Executor` loop polls.  All handles share
one duck-typed contract:

* ``poll()``    — non-blocking; True once a result (or failure) exists;
* ``result(timeout=None)`` — the value, a :class:`CellError`, blocking
  up to ``timeout``;
* ``close()``   — release resources;
* ``label`` attribute.

:class:`CompletedHandle` wraps a value that already exists (serial
execution, cache hits); :class:`FutureHandle` wraps a process-pool
future.
"""

from __future__ import annotations

from concurrent.futures import CancelledError, Future, TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from repro.fabric.cells import CellError


class CompletedHandle:
    """A handle whose result already exists (serial fallback, cache)."""

    def __init__(self, label: str, value) -> None:
        self.label = label
        self._value = value

    def poll(self) -> bool:
        return True

    def result(self, timeout: Optional[float] = None):
        return self._value

    def close(self) -> None:
        pass


class FutureHandle:
    """A handle over a :class:`concurrent.futures.Future` (pool cell).

    A future the pool dropped (a broken pool is shut down with its
    queued futures cancelled) or whose worker died becomes a
    :class:`CellError`, never an exception out of the batch.
    """

    def __init__(self, label: str, future: Future) -> None:
        self.label = label
        self._future = future

    def poll(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None):
        try:
            return self._future.result(timeout)
        except _FutureTimeout:
            raise TimeoutError(f"{self.label}: still running") from None
        except CancelledError:
            return CellError(label=self.label, error="cancelled")
        except BrokenProcessPool:
            return CellError(label=self.label,
                             error="worker process died (BrokenProcessPool)")
        except Exception as exc:        # noqa: BLE001 — per-cell surface
            return CellError(label=self.label,
                             error=f"{type(exc).__name__}: {exc}")

    def close(self) -> None:
        pass
