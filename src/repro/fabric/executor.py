"""The fabric driver: cache, journal, and ordering over a process pool.

:class:`Executor` is what grid-shaped callers (sweeps, experiments,
validation campaigns, the CLI) use, and :class:`ExecutionConfig`
is the one spelling of worker count, cache and journal they all accept.  The executor runs each batch on a
:class:`concurrent.futures.ProcessPoolExecutor` of its own and owns:

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
* **Degrading** — one worker runs the batch in-process; a payload that
  does not pickle, or a pool that cannot start, runs serially; a pool
  broken by a dead worker is replaced at the next submission.

:meth:`Executor.run_specs` runs simulation cells and
:meth:`Executor.map` runs any picklable callable.  Both go through one
submit/retire loop that keeps at most ``jobs`` calls in flight, so a
journaled ``running`` cell is one a worker has started.
"""

from __future__ import annotations

import pickle
from concurrent.futures import (FIRST_COMPLETED, CancelledError, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.fabric.cells import (CellError, CellResult, RunSpec,
                                _execute_spec, _guarded_call, default_jobs,
                                relabel)
from repro.fabric.journal import SweepJournal
from repro.harness.runner import RunResult

if TYPE_CHECKING:
    from repro.harness.cache import ResultCache


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
    cache: Optional["ResultCache"] = None
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
                  progress: Optional[Callable[[str], None]] = None
                  ) -> List[CellResult]:
        """Run simulation cells; cache hits are free, order is input order.

        ``progress(label)`` hears each cell as it is served: a cache hit
        when it is looked up, a cold cell just before a worker starts it.
        """
        journal = self._open_journal()
        results: List[Optional[CellResult]] = [None] * len(specs)
        cold: List[tuple] = []           # (index, spec, key)

        for index, spec in enumerate(specs):
            key = self._key_for(spec)
            hit = self.cache.get(key) if key is not None else None
            if hit is not None:
                if progress is not None:
                    progress(spec.label)
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
        def start(position: int) -> None:
            _index, spec, key = cold[position]
            if progress is not None:
                progress(spec.label)
            if journal is not None and key is not None:
                journal.record(key, "running", spec.label)

        def retire(position: int, value) -> None:
            index, spec, key = cold[position]
            if isinstance(value, RunResult):
                if key is not None:
                    self.cache.put(key, value)
                value = relabel(value, spec.config_label)
                if journal is not None and key is not None:
                    journal.record(key, "done")
            elif journal is not None and key is not None:
                journal.record(key, "failed")
            results[index] = value

        self._drive([(_execute_spec, spec, spec.label)
                     for _index, spec, _key in cold],
                    retire, start)

    def _key_for(self, spec: RunSpec) -> Optional[str]:
        if self.cache is None:
            return None
        return self.cache.key_for(spec.workload, spec.params,
                                  **spec.cache_kwargs())

    def _open_journal(self) -> Optional[SweepJournal]:
        target = self.execution.journal
        if target is None:
            return None
        if self.cache is None:
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
        results: List = [None] * len(items)
        self._drive([(func, item, label)
                     for item, label in zip(items, labels)],
                    results.__setitem__)
        return results

    # -------------------------------------------------------------- loop --
    def _drive(self, payloads: Sequence[tuple], retire: Callable,
               start: Optional[Callable] = None) -> None:
        """Run every ``(func, item, label)`` payload, at most ``jobs`` at
        a time, on a pool made for this batch and closed after it.

        ``start(i)`` runs just before payload ``i`` is handed to a worker,
        and ``retire(i, value)`` takes its return value or
        :class:`CellError`.
        """
        jobs = min(self.execution.resolve_jobs(default_jobs()),
                   len(payloads))
        pool: Optional[ProcessPoolExecutor] = None
        pooled = jobs > 1                # one worker: in-process, by request
        inflight: dict = {}              # future -> payload index

        def submit(payload) -> Optional[Future]:
            nonlocal pool, pooled
            try:
                pickle.dumps(payload)
            except Exception:
                self.fell_back_to_serial = True
                return None
            for _attempt in range(2):
                try:
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=jobs)
                    return pool.submit(_guarded_call, payload)
                except BrokenProcessPool:
                    # A worker died: its cells already failed; start anew.
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                except (RuntimeError, OSError):
                    break
            pooled = False
            self.fell_back_to_serial = True
            return None

        def retire_finished() -> None:
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in [each for each in inflight if each in done]:
                index = inflight.pop(future)
                retire(index, _outcome(future, payloads[index][2]))

        try:
            for index, payload in enumerate(payloads):
                while len(inflight) >= jobs:
                    retire_finished()
                if start is not None:
                    start(index)
                future = submit(payload) if pooled else None
                if future is None:
                    retire(index, _guarded_call(payload))
                else:
                    inflight[future] = index
            while inflight:
                retire_finished()
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)


def _outcome(future: Future, label: str):
    """A finished future's value; a raised, dead or cancelled cell is a
    :class:`CellError`, never an exception out of the batch."""
    try:
        return future.result()
    except CancelledError:
        return CellError(label=label, error="cancelled")
    except BrokenProcessPool:
        return CellError(label=label,
                         error="worker process died (BrokenProcessPool)")
    except Exception as exc:            # noqa: BLE001 — per-cell surface
        return CellError(label=label, error=f"{type(exc).__name__}: {exc}")
