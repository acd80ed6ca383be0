"""The fabric driver: cache, journal, and ordering over a process pool.

:class:`Executor` is what grid-shaped callers (sweeps, experiments,
surrogate pruning, sampling, validation campaigns, the CLI) use, and
:class:`ExecutionConfig` is the one spelling of worker count, cache and
journal they all accept.  The executor owns everything the
:class:`~repro.fabric.local.LocalProcessBackend` pool does not:

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

:meth:`Executor.run_specs` runs simulation cells and
:meth:`Executor.map` runs any picklable callable.  Both go through one
submit/retire loop over a pool created and closed per batch.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.fabric.cells import CellResult, RunSpec, default_jobs, relabel
from repro.fabric.journal import SweepJournal
from repro.fabric.local import LocalProcessBackend
from repro.harness.runner import RunResult

#: Poll cadence of the submit/retire loop, seconds.
_POLL_SLEEP = 0.001


@dataclass
class ExecutionConfig:
    """How a grid (or a single run) should execute.

    The one spelling of worker count, cache, and journal that every
    entry point accepts::

        grid = sweep.run(execution=ExecutionConfig(jobs=4, cache=cache))

    ``jobs=None`` means the caller's default (1 for grids;
    :func:`~repro.fabric.cells.default_jobs` for ``Executor``).
    ``journal`` is an optional path: the driver then records cell
    states (pending/running/done-in-cache) in an append-only JSONL
    journal so a killed sweep resumes without re-executing done cells
    (requires ``cache``).
    """

    #: Only "local-process"; kept because bench/workload.py passes it.
    backend: str = "local-process"
    jobs: Optional[int] = None
    cache: object = None
    progress: Optional[Callable] = None
    journal: Optional[object] = None

    def __post_init__(self) -> None:
        if self.backend != "local-process":
            raise ConfigurationError(
                f"unknown execution backend {self.backend!r}; the only "
                f"backend is 'local-process'")

    def resolve_jobs(self, default: int = 1) -> int:
        if self.jobs is None:
            return default
        return max(1, int(self.jobs))


class Executor:
    """Cache-, journal-, and order-aware batch driver over a pool."""

    def __init__(self, execution: Optional[ExecutionConfig] = None) -> None:
        self.execution = execution if execution is not None \
            else ExecutionConfig()
        self.cache = self.execution.cache
        #: True when any batch degraded to in-process serial execution.
        self.fell_back_to_serial = False

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
        def submit(backend, cell):
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

        self._drive(self.execution.resolve_jobs(default_jobs()), cold,
                    submit, retire, progress)

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

        Runs in-process when one worker is asked for or a payload does
        not pickle.  A failed item is a :class:`CellError` in its slot.
        """
        if labels is None:
            labels = [f"task[{index}]" for index in range(len(items))]
        jobs = self.execution.resolve_jobs(default_jobs())
        results: List = [None] * len(items)

        def submit(backend, index):
            return backend.submit_call(func, items[index], labels[index])

        def retire(index, value) -> None:
            results[index] = value

        self._drive(min(jobs, max(1, len(items))), range(len(items)),
                    submit, retire, self.execution.progress)
        return results

    # -------------------------------------------------------------- loop --
    def _drive(self, jobs: int, work: Sequence, submit: Callable,
               retire: Callable, progress) -> None:
        """Keep up to ``jobs`` items of ``work`` in flight on a fresh
        pool until all are retired.  ``submit(backend, item)`` starts
        one and returns its handle; ``retire(item, value)`` takes its
        result; ``progress(done, total)`` counts retirements."""
        backend = LocalProcessBackend(jobs=jobs)
        pending = deque(work)
        inflight: dict = {}              # handle -> item
        retired = 0
        try:
            while pending or inflight:
                while pending and len(inflight) < backend.jobs:
                    item = pending.popleft()
                    inflight[submit(backend, item)] = item
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
        finally:
            backend.close()
        self.fell_back_to_serial |= backend.fell_back_to_serial
