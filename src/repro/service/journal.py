"""Crash-safe job journal: append-only JSONL with fsync'd transitions.

Every job state transition is one line::

    {"job": "j-000001", "state": "pending", "record": {...full job...}}
    {"job": "j-000001", "state": "running", "t": 1722.5}
    {"job": "j-000001", "state": "done", "t": 1724.1, ...}

The first line for a job carries the full submission record (tenant,
kind, canonical payload, key); later lines are deltas.  Appends are
flushed and ``os.fsync``'d before the service acts on the transition,
so after a ``kill -9`` the journal never *under*-reports: a job may be
re-run (its execution was in flight) but is never lost, and a terminal
state is never forgotten.

:func:`JobJournal.replay` folds the lines back into job records.  On
startup the service compacts: terminal jobs beyond a keep-bound are
dropped and the file is rewritten atomically.  The durability rules —
torn-tail healing and skipping, fsync, ``os.replace`` — belong to
:class:`~repro.common.jsonl.JsonlLog`, shared with the sweep journal.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.common.jsonl import JsonlLog
from repro.service.jobs import TERMINAL_STATES

#: Submission-record fields, journaled on a job's first line.
_RECORD_FIELDS = ("kind", "key", "tenant", "payload", "cost", "timeout",
                  "parent", "shared_with", "dedupe", "artifact",
                  "submitted_at")

#: Fields a later line may update on the folded record.
_DELTA_FIELDS = ("error", "result_key", "artifact", "dedupe",
                 "shared_with", "started_at")


def _log(path, fsync: bool = True) -> JsonlLog:
    return JsonlLog(path, fsync=fsync, separators=(",", ":"))


class JobJournal:
    """Append-only JSONL journal for job state transitions."""

    def __init__(self, path, *, fsync: bool = True) -> None:
        self._log = _log(path, fsync)
        self.path = self._log.path

    # ------------------------------------------------------------- write --
    def append(self, job_id: str, state: str, **extra) -> None:
        """Durably record that ``job_id`` entered ``state``."""
        line = {"job": job_id, "state": state, "t": round(time.time(), 3)}
        line.update(extra)
        self._log.append(line)

    def submitted(self, job) -> None:
        """First line for a job: the full record, enough to re-create it."""
        self.append(job.id, job.state, record={
            name: getattr(job, name) for name in _RECORD_FIELDS})

    # -------------------------------------------------------------- read --
    @staticmethod
    def replay(path) -> Dict[str, dict]:
        """Fold a journal into ``{job_id: folded}`` in submission order.

        Each folded record is the submission ``record`` plus the latest
        ``state`` (and any terminal extras such as ``error``).  Lines for
        unknown jobs (submission line itself torn away — cannot happen
        with fsync'd appends, but tolerated) are skipped, never fatal.
        """
        jobs: Dict[str, dict] = {}
        for line in _log(path).replay():
            job_id, state = line.get("job"), line.get("state")
            if not job_id or not state:
                continue
            folded = jobs.get(job_id)
            if folded is None:
                record = line.get("record")
                if isinstance(record, dict):   # else: a delta, job unseen
                    jobs[job_id] = dict(record, id=job_id, state=state)
                continue
            folded["state"] = state
            for name in _DELTA_FIELDS:
                if name in line:
                    folded[name] = line[name]
        return jobs

    # --------------------------------------------------------- compaction --
    def compact(self, *, keep_terminal: int = 256) -> Dict[str, dict]:
        """Rewrite the journal keeping every non-terminal job and the
        most recent ``keep_terminal`` terminal ones; returns the replay.

        Called on startup, before resuming: bounds journal growth across
        restarts without ever dropping work the server still owes.
        """
        jobs = self.replay(self.path)
        live = {job_id: folded for job_id, folded in jobs.items()
                if folded["state"] not in TERMINAL_STATES}
        terminal = [(job_id, folded) for job_id, folded in jobs.items()
                    if folded["state"] in TERMINAL_STATES]
        kept = dict(terminal[-keep_terminal:] if keep_terminal else [])
        kept.update(live)
        self._log.rewrite(_compacted(job_id, folded)
                          for job_id, folded in kept.items())
        return kept


def _compacted(job_id: str, folded: dict) -> dict:
    """One line carrying a folded job: its record plus terminal extras."""
    line = {"job": job_id, "state": folded["state"],
            "record": {name: folded.get(name) for name in _RECORD_FIELDS}}
    for extra in ("error", "result_key", "started_at"):
        if folded.get(extra) is not None:
            line[extra] = folded[extra]
    return line
