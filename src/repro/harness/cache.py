"""On-disk simulation-result cache keyed by content hashes.

A simulation is a pure function of its inputs: the workload (deterministic
by construction), the :class:`~repro.common.params.ProcessorParams`, the
instruction budget, and the simulator source itself.  The cache therefore
keys each :class:`~repro.harness.runner.RunResult` by a SHA-256 over

* the canonicalized parameter dataclasses (every field, recursively, in
  sorted-key JSON form — so two structurally equal configs share an entry
  however they were constructed),
* the workload name, scale, instruction and cycle budgets, warmup flags,
* a *source-version token*: a hash over the ``repro`` package sources, so
  any change to the simulator invalidates every cached result.

Entries live as individual JSON files under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``).  A corrupt or unreadable entry is *quarantined*
(moved aside for postmortem, bounded in count) and the cell is
recomputed; the cache never makes a run fail.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.common.params import ProcessorParams
from repro.harness.runner import RunResult

#: Bump when the cached-entry layout changes; part of every key.
SCHEMA_VERSION = 1

_source_token_cache: Optional[str] = None


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR", "")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def source_version_token() -> str:
    """Hash of every ``.py`` and ``.c`` file in the installed ``repro``
    package (see :func:`tree_token`).

    Computed once per process.  Any edit to the simulator source, the
    compiled kernels' C included, changes the token, so stale results
    can never be served after a code change.
    """
    global _source_token_cache
    if _source_token_cache is None:
        import repro
        _source_token_cache = tree_token(Path(repro.__file__).parent)
    return _source_token_cache


def tree_token(root: Path) -> str:
    """Hash of the relative path and bytes of every ``.py`` and ``.c``
    file under ``root``."""
    digest = hashlib.sha256()
    paths = [*root.rglob("*.py"), *root.rglob("*.c")]
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def canonical_params(params: ProcessorParams) -> str:
    """Stable textual form of a parameter tree (sorted-key JSON)."""
    return json.dumps(dataclasses.asdict(params), sort_keys=True,
                      default=str, separators=(",", ":"))


def run_key(workload: str, params: ProcessorParams, *,
            max_instructions: Optional[int] = None,
            scale: int = 1,
            max_cycles: int = 5_000_000,
            warm_code: bool = True,
            token: Optional[str] = None) -> str:
    """Content-hash key for one simulation cell."""
    payload = json.dumps({
        "schema": SCHEMA_VERSION,
        "token": token if token is not None else source_version_token(),
        "workload": workload,
        "scale": scale,
        "max_instructions": max_instructions,
        "max_cycles": max_cycles,
        "warm_code": warm_code,
        "params": dataclasses.asdict(params),
    }, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def prune_dir(directory: os.PathLike, keep: int, *,
              suffix: str = ".json") -> None:
    """Delete all but the ``keep`` newest (by mtime) ``suffix`` files in
    ``directory``, oldest first.

    Deletion errors are ignored (another process may be pruning the same
    directory); the pass never raises.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return
    entries = []
    for path in directory.iterdir():
        if not path.name.endswith(suffix):
            continue
        try:
            entries.append((path.stat().st_mtime, path))
        except OSError:
            continue
    entries.sort()                                   # oldest first
    for _mtime, path in entries[:max(0, len(entries) - keep)]:
        try:
            path.unlink()
        except OSError:
            pass


class ResultCache:
    """Persistent (workload, params) -> RunResult store.

    ``token`` overrides the source-version token (tests use this to prove
    invalidation); ``enabled=False`` turns every operation into a no-op so
    callers can thread one object through unconditionally.
    """

    #: Quarantined corrupt entries kept for postmortem, oldest pruned.
    MAX_QUARANTINE = 16

    def __init__(self, directory: Optional[os.PathLike] = None, *,
                 enabled: bool = True,
                 token: Optional[str] = None) -> None:
        self.directory = Path(directory) if directory is not None \
            else default_cache_dir()
        self.enabled = enabled
        self.token = token
        self.hits = 0
        self.misses = 0
        self.evictions = 0     # corrupt entries quarantined

    # ------------------------------------------------------------- keys --
    def key_for(self, workload: str, params: ProcessorParams,
                **run_kwargs) -> str:
        return run_key(workload, params, token=self.token, **run_kwargs)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    # ------------------------------------------------------------ lookup --
    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None on miss/corruption."""
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            raw = json.loads(path.read_text())
            if raw["schema"] != SCHEMA_VERSION:
                raise ValueError(f"schema {raw['schema']}")
            result = RunResult(
                workload=raw["workload"], config=raw["config"],
                ipc=raw["ipc"], cycles=raw["cycles"],
                instructions=raw["instructions"], stats=raw["stats"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt entry: quarantine it for postmortem, treat as a miss.
            self.evictions += 1
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside instead of failing or re-reading it."""
        target_dir = self.directory / "quarantine"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            # Quarantine is best-effort; fall back to plain removal so the
            # corrupt file cannot be served again.
            try:
                path.unlink()
            except OSError:
                pass
            return
        prune_dir(target_dir, self.MAX_QUARANTINE)

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / "quarantine"

    def put(self, key: str, result: RunResult) -> None:
        """Store a result (atomic write so readers never see a torn file)."""
        if not self.enabled:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": SCHEMA_VERSION,
            "workload": result.workload,
            "config": result.config,
            "ipc": result.ipc,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "stats": result.stats,
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (f"ResultCache({self.directory}, {state}, "
                f"hits={self.hits}, misses={self.misses})")
