"""The fabric driver: cache, journal, and ordering over any backend.

:class:`Executor` is what grid-shaped callers (sweeps, experiments,
surrogate pruning, sampling, validation campaigns, the CLI) use.  It
owns everything backends should not have to know about:

* **Caching** — each cell is looked up in the
  :class:`~repro.harness.cache.ResultCache` first; only cold cells are
  submitted, and every executed result is stored back.
* **Journaling** — with ``ExecutionConfig(journal=path)``, per-cell
  states (pending/running/done-in-cache) land in a
  :class:`~repro.fabric.journal.SweepJournal` so a killed campaign
  resumes exactly: journaled-done cells come back as cache hits and are
  never re-executed.
* **Ordering** — results return in input order regardless of worker
  completion order; a failed cell is a :class:`CellError` in its slot,
  never an exception out of the batch.
* **Backend lifetime** — a spec-string backend is created per batch and
  always closed; a live :class:`ExecutionBackend` instance passed in
  ``ExecutionConfig.backend`` is borrowed, not owned.

:meth:`Executor.run_specs` runs simulation cells on the configured
backend; :meth:`Executor.map` runs any picklable callable on a
``local-process`` pool.  Both go through one submit/retire loop.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.fabric.base import ExecutionConfig
from repro.fabric.cells import CellResult, RunSpec, default_jobs, relabel
from repro.fabric.journal import SweepJournal
from repro.fabric.local import LocalProcessBackend
from repro.harness.runner import RunResult

#: Poll cadence of the submit/retire loop, seconds.
_POLL_SLEEP = 0.001


class Executor:
    """Cache-, journal-, and order-aware batch driver over a backend."""

    def __init__(self, execution: Optional[ExecutionConfig] = None) -> None:
        self.execution = execution if execution is not None \
            else ExecutionConfig()
        self.cache = self.execution.cache
        #: True when any batch degraded to in-process serial execution.
        self.fell_back_to_serial = False
        #: Worker-cache entries merged back by the last ``run_specs``.
        self.merged_entries = 0

    # ------------------------------------------------------------- specs --
    def run_specs(self, specs: Sequence[RunSpec],
                  progress: Optional[Callable[[int, int], None]] = None
                  ) -> List[CellResult]:
        """Run simulation cells; cache hits are free, order is input order.

        ``progress(done, total)`` counts *cold* cells only — cache hits
        are not progress, they are the absence of work.
        """
        progress = progress if progress is not None \
            else self.execution.progress
        journal = self._open_journal()
        results: List[Optional[CellResult]] = [None] * len(specs)
        cold: List[tuple] = []           # (index, spec, key)

        for index, spec in enumerate(specs):
            key = self._key_for(spec)
            hit = self.cache.get(key) if key is not None else None
            if hit is not None:
                results[index] = relabel(hit, spec.config_label)
                if journal is not None and not journal.done(key):
                    journal.record(key, "cached", spec.label)
                continue
            if journal is not None and key is not None \
                    and journal.states.get(key) != "pending":
                journal.record(key, "pending", spec.label)
            cold.append((index, spec, key))

        if cold:
            self._run_cold(cold, results, journal, progress)
        return results

    def _run_cold(self, cold, results, journal, progress) -> None:
        backend = self.execution.make_backend(
            default_jobs_to=default_jobs())
        owned = backend is not self.execution.backend

        def submit(cell):
            _index, spec, key = cell
            if journal is not None and key is not None:
                journal.record(key, "running", spec.label)
            return backend.submit(spec)

        def retire(cell, value) -> None:
            index, spec, key = cell
            if isinstance(value, RunResult):
                if key is not None:
                    self.cache.put(key, value)
                value = relabel(value, spec.config_label)
                if journal is not None and key is not None:
                    journal.record(key, "done")
            elif journal is not None and key is not None:
                journal.record(key, "failed")
            results[index] = value

        try:
            self._drive(backend, cold, submit, retire, progress)
            self.merged_entries = backend.merge_cache(self.cache)
        finally:
            if owned:
                backend.close()

    def _key_for(self, spec: RunSpec) -> Optional[str]:
        if self.cache is None or not hasattr(self.cache, "key_for"):
            return None
        if spec.metrics is not None:
            return None                  # the time series is the result
        return self.cache.key_for(spec.workload, spec.params,
                                  **spec.cache_kwargs())

    def _open_journal(self) -> Optional[SweepJournal]:
        target = self.execution.journal
        if target is None:
            return None
        if self.cache is None or not hasattr(self.cache, "key_for"):
            raise ConfigurationError(
                "journaled execution needs a ResultCache: the journal "
                "records cell states by cache key and resumes from "
                "cached results")
        if isinstance(target, SweepJournal):
            return target
        return SweepJournal(target)

    # --------------------------------------------------------------- map --
    def map(self, func: Callable, items: Sequence,
            labels: Optional[Sequence[str]] = None) -> List:
        """Apply ``func`` to every item in parallel, in input order.

        Generic callables cannot ship off-host, so this runs on a
        ``local-process`` pool whatever the configured backend, with
        that backend's serial fallback (``jobs=1``, payloads that do not
        pickle).  A failed item is a :class:`CellError` in its slot.
        """
        if labels is None:
            labels = [f"task[{index}]" for index in range(len(items))]
        jobs = self.execution.resolve_jobs(default_jobs())
        backend = LocalProcessBackend(
            jobs=min(jobs, max(1, len(items))),
            start_method=self.execution.options.get("start_method"))
        results: List = [None] * len(items)

        def submit(index):
            return backend.submit_call(func, items[index], labels[index])

        def retire(index, value) -> None:
            results[index] = value

        try:
            self._drive(backend, range(len(items)), submit, retire,
                        self.execution.progress)
        finally:
            backend.close()
        return results

    # -------------------------------------------------------------- loop --
    def _drive(self, backend, work: Sequence, submit: Callable,
               retire: Callable, progress) -> None:
        """Keep up to ``backend.capacity()`` items of ``work`` in flight
        until all are retired.  ``submit(item)`` starts one and returns
        its handle; ``retire(item, value)`` takes its result;
        ``progress(done, total)`` counts retirements."""
        pending = deque(work)
        inflight: dict = {}              # handle -> item
        retired = 0
        while pending or inflight:
            while pending and len(inflight) < backend.capacity():
                item = pending.popleft()
                inflight[submit(item)] = item
            backend.tick()
            done = [handle for handle in inflight if handle.poll()]
            if not done:
                time.sleep(_POLL_SLEEP)
                continue
            for handle in done:
                item = inflight.pop(handle)
                value = handle.result()
                handle.close()
                retire(item, value)
                retired += 1
                if progress is not None:
                    progress(retired, len(work))
        self.fell_back_to_serial = self.fell_back_to_serial or bool(
            getattr(backend, "fell_back_to_serial", False))
