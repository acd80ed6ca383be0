"""Append-only JSONL logs: the durability discipline of the sweep journal.

The sweep journal (:mod:`repro.fabric.journal`) is a fold over one
:class:`JsonlLog`, which owns the three crash-safety rules:

* **append** — one JSON object per line, flushed and ``os.fsync``'d
  before returning, so the caller may act on a record once the call
  returns.  A crash mid-append leaves a *torn* final line with no
  newline; the first append after reopening starts a fresh line,
  so the new record never glues onto the fragment and vanishes with it.
* **replay** — the objects in file order, skipping blank lines, torn
  lines, and lines that are valid JSON but not objects.
* **rewrite** — replace the whole file atomically: a sibling ``.tmp``
  file is written and fsync'd, then moved over the log with
  ``os.replace``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator


class JsonlLog:
    """One append-only JSONL file (see the module docstring); keys are
    always sorted."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        #: True once this object has left the file ending in a newline;
        #: until then the first append checks for a torn tail.
        self._tail_ok = False

    def _encode(self, entry: dict) -> bytes:
        return (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")

    def append(self, entry: dict) -> None:
        """Durably add one record, healing a torn tail first."""
        data = self._encode(entry)
        if not self._tail_ok:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as handle:
            if not self._tail_ok and handle.seek(0, os.SEEK_END):
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    data = b"\n" + data
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        self._tail_ok = True

    def replay(self) -> Iterator[dict]:
        """Every well-formed record, in file order."""
        try:
            handle = open(self.path, encoding="utf-8")
        except FileNotFoundError:
            return
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue                 # torn tail of a crashed append
                if isinstance(entry, dict):
                    yield entry

    def rewrite(self, entries: Iterable[dict]) -> None:
        """Atomically replace the log's contents with ``entries``."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            for entry in entries:
                handle.write(self._encode(entry))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._tail_ok = True
