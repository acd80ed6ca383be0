"""The ``ssh`` backend: cells over stdin/stdout subprocess channels.

Each *channel* is one worker process speaking the JSONL protocol of
:mod:`repro.fabric.worker`.  A host named ``"local"``/``"localhost"``
launches the worker directly (``python -m repro.fabric.worker``) — the
form CI exercises, identical wire path minus the ssh transport; any
other name goes through ``ssh -o BatchMode=yes <host>``, assuming the
remote login shell can ``python3 -m repro.fabric.worker`` (i.e. the
repo is on the remote ``PYTHONPATH``).

Guarantees:

* **Bit-identity** — the hello handshake carries the worker's
  source-version token; a mismatch is a hard
  :class:`~repro.common.errors.ConfigurationError`, so both ends always
  run the same sources (JSON round-trips Python floats exactly, so the
  wire adds no drift).
* **Cache merge** — each worker keeps its own
  :class:`~repro.harness.cache.ResultCache`; ``merge_cache`` pulls every
  entry the session touched back into the submitting side's store.
  Tokens match (see above), so the keys align.
* **No code channel** — off-host tasks are restricted to the
  :data:`~repro.fabric.cells.REMOTE_TASKS` allowlist; cells ship as
  data (:func:`~repro.fabric.cells.spec_to_dict`), never as pickles.

One cell is in flight per channel; ``hosts`` are replicated round-robin
up to ``jobs`` channels (``jobs=8`` over 2 hosts → 4 channels each).
A dead channel fails its in-flight cell (``CellError``) and is
respawned for the next submission; cancellation kills the channel's
worker process outright — the hard-kill contract ``submit_task`` needs.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.fabric.base import ExecutionBackend, register_backend
from repro.fabric.cells import (REMOTE_TASKS, CellError, RunSpec,
                                result_from_dict, spec_to_dict, task_name)
from repro.fabric.local import submit_detached

#: Seconds to wait for a worker's hello line before declaring it dead.
HELLO_TIMEOUT = 30.0

_LOCAL_HOSTS = ("local", "localhost")


def _worker_command(host: str, cache_dir: Optional[str]) -> List[str]:
    if host in _LOCAL_HOSTS:
        command = [sys.executable, "-u", "-m", "repro.fabric.worker"]
    else:
        command = ["ssh", "-o", "BatchMode=yes", host,
                   "python3", "-u", "-m", "repro.fabric.worker"]
    if cache_dir:
        command.append(str(cache_dir))
    return command


def _local_env() -> dict:
    """Environment for a directly-launched worker: make sure the repro
    package the parent runs is the one the child imports."""
    env = os.environ.copy()
    import repro
    package_root = str(Path(repro.__file__).parent.parent)
    current = env.get("PYTHONPATH", "")
    if package_root not in current.split(os.pathsep):
        env["PYTHONPATH"] = (package_root + os.pathsep + current
                             if current else package_root)
    return env


class _Channel:
    """One worker subprocess: JSONL out over stdin, replies via a reader
    thread draining stdout into a queue."""

    def __init__(self, host: str, cache_dir: Optional[str],
                 expect_token: str) -> None:
        self.host = host
        self.dead = False
        self.handle: Optional["ChannelHandle"] = None
        self._next_id = 0
        self._pending: Dict[int, "ChannelHandle"] = {}
        self._queue: "queue.Queue" = queue.Queue()
        kwargs = {}
        if host in _LOCAL_HOSTS:
            kwargs["env"] = _local_env()
        self.process = subprocess.Popen(
            _worker_command(host, cache_dir),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, **kwargs)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()
        hello = self._wait_message(timeout=HELLO_TIMEOUT)
        if hello is None or hello.get("op") != "hello":
            self.kill()
            raise ConfigurationError(
                f"fabric worker on {host!r} did not complete the hello "
                f"handshake (is repro importable there?)")
        if hello.get("token") != expect_token:
            self.kill()
            raise ConfigurationError(
                f"fabric worker on {host!r} runs different repro sources "
                f"(token {hello.get('token')!r} != local {expect_token!r});"
                f" sync the checkout before running cells there")

    # ------------------------------------------------------------- wire --
    def _read_loop(self) -> None:
        try:
            for line in self.process.stdout:
                line = line.strip()
                if not line:
                    continue
                try:
                    self._queue.put(json.loads(line))
                except ValueError:
                    continue             # stray non-protocol output
        except (OSError, ValueError):
            pass
        self._queue.put(None)            # EOF marker

    def _wait_message(self, timeout: float) -> Optional[dict]:
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def send(self, message: dict) -> bool:
        try:
            self.process.stdin.write(json.dumps(message, sort_keys=True)
                                     + "\n")
            self.process.stdin.flush()
            return True
        except (OSError, ValueError):
            self._mark_dead()
            return False

    def request_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # ---------------------------------------------------------- pumping --
    def pump(self) -> None:
        """Dispatch queued replies to their handles (non-blocking)."""
        if self.dead:
            return
        while True:
            try:
                message = self._queue.get_nowait()
            except queue.Empty:
                break
            if message is None:          # reader hit EOF: worker is gone
                self._mark_dead()
                break
            self._dispatch(message)
        if self.process.poll() is not None and not self._queue.qsize():
            self._mark_dead()

    def _dispatch(self, message: dict) -> None:
        handle = self._pending.get(message.get("id"))
        if handle is None:
            return
        op = message.get("op")
        if op == "tick":
            handle._ticks.append(message.get("payload") or {})
        elif op == "done":
            result = message.get("result")
            if isinstance(result, dict) and "ipc" in result:
                result = result_from_dict(result)
            handle._settle(result)
        elif op == "error":
            handle._settle(CellError(
                label=message.get("label") or handle.label,
                error=message.get("error", "remote error"),
                details=message.get("details", "")))

    def _mark_dead(self) -> None:
        if self.dead:
            return
        self.dead = True
        for handle in list(self._pending.values()):
            if not handle._finished:
                handle._settle(CellError(
                    label=handle.label,
                    error="cancelled" if handle.cancelled
                    else f"fabric worker on {self.host!r} died "
                         f"without reporting a result"))
        self._pending.clear()

    # ---------------------------------------------------------- control --
    def register(self, handle: "ChannelHandle", request_id: int) -> None:
        self._pending[request_id] = handle
        self.handle = handle

    def release(self, handle: "ChannelHandle") -> None:
        if self.handle is handle:
            self.handle = None
        self._pending = {rid: h for rid, h in self._pending.items()
                         if h is not handle}

    def merge_entries(self, timeout: float = 60.0) -> List:
        """Synchronously fetch the worker's session cache entries."""
        if self.dead:
            return []
        request_id = self.request_id()
        if not self.send({"op": "merge", "id": request_id}):
            return []
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            message = self._wait_message(timeout=0.1)
            if message is None:
                if self.process.poll() is not None:
                    self._mark_dead()
                    return []
                continue
            if (message.get("op") == "merged"
                    and message.get("id") == request_id):
                return message.get("entries") or []
            self._dispatch(message)
        return []

    def kill(self) -> None:
        self.dead = True
        try:
            self.process.kill()
        except OSError:
            pass
        self.process.wait(timeout=5.0)
        self._mark_dead()

    def shutdown(self) -> None:
        if not self.dead:
            self.send({"op": "exit"})
            try:
                self.process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                pass
        self.kill()


class ChannelHandle:
    """Handle for one op (cell or task) in flight on a channel."""

    def __init__(self, channel: _Channel, label: str) -> None:
        self.label = label
        self.cancelled = False
        self._channel = channel
        self._ticks: List[dict] = []
        self._result = None
        self._finished = False
        #: True when the worker answered from its own cache (telemetry).
        self.remote_cached = False

    def _settle(self, value) -> None:
        self._result = value
        self._finished = True
        self._channel.release(self)

    def poll(self) -> bool:
        if not self._finished:
            self._channel.pump()
        return self._finished

    def ticks(self) -> List[dict]:
        self.poll()
        out, self._ticks = self._ticks, []
        return out

    def result(self, timeout: Optional[float] = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.poll():
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"{self.label}: still running")
            time.sleep(0.005)
        return self._result

    def cancel(self) -> bool:
        if self._finished:
            return False
        self.cancelled = True
        self._channel.kill()             # hard kill: the whole worker
        if not self._finished:
            self._settle(CellError(label=self.label, error="cancelled"))
        return True

    def close(self) -> None:
        if not self._finished:
            self.cancel()


class SSHBackend(ExecutionBackend):
    """Multi-host backend over stdin/stdout worker channels."""

    name = "ssh"

    def __init__(self, *, jobs: Optional[int] = None,
                 hosts: Optional[List[str]] = None,
                 worker_cache_dir: Optional[str] = None) -> None:
        self.hosts = list(hosts) if hosts else ["local"]
        self.jobs = (len(self.hosts) if jobs is None
                     else max(1, int(jobs)))
        self.worker_cache_dir = worker_cache_dir
        self._channels: List[_Channel] = []
        self._spawned = 0                # round-robin cursor over hosts
        from repro.harness.cache import source_version_token
        self._token = source_version_token()

    # --------------------------------------------------------- protocol --
    def capacity(self) -> int:
        return self.jobs

    def submit(self, spec: RunSpec):
        if spec.metrics is not None:
            raise ConfigurationError(
                "metered cells (metrics=) cannot ship over the ssh "
                "backend; run them on a local backend")
        channel = self._idle_channel()
        handle = ChannelHandle(channel, spec.label)
        request_id = channel.request_id()
        channel.register(handle, request_id)
        if not channel.send({"op": "run", "id": request_id,
                             "spec": spec_to_dict(spec)}):
            pass                         # _mark_dead already settled it
        return handle

    def submit_task(self, func: Callable, item, *, label: str = "task"):
        name = task_name(func)
        if name not in REMOTE_TASKS:
            # Not shippable as data: run it on the submitting host with
            # the usual dedicated-process (hard-kill) contract.
            return submit_detached(func, item, label=label)
        channel = self._idle_channel()
        handle = ChannelHandle(channel, label)
        request_id = channel.request_id()
        channel.register(handle, request_id)
        channel.send({"op": "task", "id": request_id, "name": name,
                      "item": item})
        return handle

    def tick(self) -> None:
        for channel in self._channels:
            channel.pump()
        self._reap_dead()

    def merge_cache(self, cache) -> int:
        if cache is None or not getattr(cache, "enabled", False):
            return 0
        merged = 0
        for channel in self._channels:
            entries = channel.merge_entries()
            merged += cache.merge(
                (key, result_from_dict(result)) for key, result in entries)
        return merged

    def close(self) -> None:
        for channel in self._channels:
            channel.shutdown()
        self._channels = []

    # --------------------------------------------------------- internals --
    def _reap_dead(self) -> None:
        self._channels = [channel for channel in self._channels
                          if not channel.dead]

    def _idle_channel(self) -> _Channel:
        self._reap_dead()
        for channel in self._channels:
            channel.pump()
            if channel.handle is None and not channel.dead:
                return channel
        self._reap_dead()
        if len(self._channels) >= self.jobs:
            raise RuntimeError(
                f"ssh backend over capacity ({self.jobs} channels, all "
                f"busy); respect capacity() when submitting")
        host = self.hosts[self._spawned % len(self.hosts)]
        self._spawned += 1
        channel = _Channel(host, self.worker_cache_dir, self._token)
        self._channels.append(channel)
        return channel


register_backend("ssh", SSHBackend)
