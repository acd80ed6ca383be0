"""Cell handles: the uniform async surface of submitted work.

``LocalProcessBackend.submit`` / ``submit_call`` and ``submit_detached``
hand back a handle the driver (or the job service's event loop) polls.
All handles share one duck-typed contract:

* ``poll()``    — non-blocking; True once a result (or failure) exists;
* ``ticks()``   — progress payloads accumulated since the last call;
* ``result(timeout=None)`` — the value, a :class:`CellError`, blocking
  up to ``timeout``;
* ``cancel()``  — stop the work (a hard kill for :class:`CellHandle`);
* ``close()``   — release resources;
* ``label`` / ``cancelled`` attributes.

:class:`CellHandle` is the dedicated-process implementation (one task,
one worker process, pipe-streamed ticks, hard-kill cancel) that the job
service's timeouts rely on.  :class:`CompletedHandle` wraps a value that
already exists (serial execution, cache hits); :class:`FutureHandle`
wraps a process-pool future (cancel is best-effort there — a pool
worker cannot be killed per-task).
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError, Future, TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait
from typing import List, Optional

from repro.fabric.cells import CellError


class CellHandle:
    """One asynchronously submitted task: poll, stream ticks, cancel.

    The task runs in a dedicated worker process whose lifetime the
    handle owns.  ``poll()`` is non-blocking and drains the progress
    pipe; ``cancel()`` terminates the worker outright (the result
    becomes a ``CellError`` marked cancelled).  Designed to be driven
    from an event loop — nothing here blocks beyond a bounded ``join``.
    """

    def __init__(self, label: str, process, conn) -> None:
        self.label = label
        self._process = process
        self._conn = conn
        self._result = None
        self._finished = False
        self.cancelled = False
        #: Drained-but-unconsumed progress payloads (see :meth:`ticks`).
        self._ticks: List[dict] = []

    # ---------------------------------------------------------- polling --
    def _drain(self) -> None:
        if self._finished:
            return
        try:
            while self._conn.poll():
                kind, payload = self._conn.recv()
                if kind == "tick":
                    self._ticks.append(payload)
                else:                    # "done" | "error"
                    self._result = payload
                    self._finish()
                    return
        except (EOFError, OSError):
            # Pipe closed without a result: the worker died (or was
            # cancelled); classify below.
            if self._result is None and not self._process.is_alive():
                self._result = CellError(
                    label=self.label,
                    error="cancelled" if self.cancelled
                    else "worker process died without reporting a result")
                self._finish()

    def _finish(self) -> None:
        self._finished = True
        try:
            self._conn.close()
        except OSError:
            pass
        self._process.join(timeout=5.0)

    def poll(self) -> bool:
        """Non-blocking: True once a result (or failure) is available."""
        self._drain()
        if self._finished:
            return True
        if not self._process.is_alive():
            # Worker exited; one last drain catches a result racing the
            # exit, otherwise record the death.
            try:
                if self._conn.poll():
                    self._drain()
            except (EOFError, OSError):
                pass
            if not self._finished:
                self._result = CellError(
                    label=self.label,
                    error="cancelled" if self.cancelled
                    else "worker process died without reporting a result")
                self._finish()
        return self._finished

    def ticks(self) -> List[dict]:
        """Progress payloads accumulated since the last call (drained)."""
        self._drain()
        out, self._ticks = self._ticks, []
        return out

    def result(self, timeout: Optional[float] = None):
        """Block (up to ``timeout``) for the result; raises on timeout.

        Waits on the pipe, not on the process: a worker whose result is
        larger than the pipe buffer cannot exit until it is read.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.poll():
            remaining = None if deadline is None \
                else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError(f"{self.label}: still running")
            wait([self._conn, self._process.sentinel], remaining)
        return self._result

    # ------------------------------------------------------ cancellation --
    def cancel(self) -> bool:
        """Terminate the worker; True if this call performed the kill."""
        if self._finished:
            return False
        self.cancelled = True
        self._process.terminate()
        self._process.join(timeout=2.0)
        if self._process.is_alive():     # stuck in uninterruptible state
            self._process.kill()
            self._process.join(timeout=2.0)
        self._result = CellError(label=self.label, error="cancelled")
        self._finish()
        return True

    def close(self) -> None:
        if not self._finished:
            self.cancel()


class CompletedHandle:
    """A handle whose result already exists (serial fallback, cache)."""

    def __init__(self, label: str, value) -> None:
        self.label = label
        self.cancelled = False
        self._value = value

    def poll(self) -> bool:
        return True

    def ticks(self) -> List[dict]:
        return []

    def result(self, timeout: Optional[float] = None):
        return self._value

    def cancel(self) -> bool:
        return False

    def close(self) -> None:
        pass


class FutureHandle:
    """A handle over a :class:`concurrent.futures.Future` (pool cell).

    Cancellation is best-effort: a not-yet-started future is dropped,
    but a pool worker cannot be killed per-task.  Batch sweeps never
    need the hard kill; callers that do (the job service) use
    :func:`~repro.fabric.local.submit_detached` instead.
    """

    def __init__(self, label: str, future: Future) -> None:
        self.label = label
        self.cancelled = False
        self._future = future

    def poll(self) -> bool:
        return self._future.done()

    def ticks(self) -> List[dict]:
        return []

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

    def cancel(self) -> bool:
        self.cancelled = True
        return self._future.cancel()

    def close(self) -> None:
        pass
