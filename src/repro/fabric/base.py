"""The :class:`ExecutionBackend` protocol, registry, and config.

The fabric turns "how cells get executed" into a pluggable choice.  A
backend owns worker resources (a process pool, channels to other
machines) and exposes one small surface::

    capacity()                      how many cells may be in flight
    submit(spec) -> handle          start one simulation cell
    submit_task(func, item) -> h    start one generic task (hard-kill
                                    cancellable — the job service path)
    tick()                          pump internal machinery (optional)
    cancel(handle)                  delegate to the handle's cancel
    merge_cache(cache) -> int       pull worker-side ResultCache entries
                                    back into a local cache
    close()                         release workers

Handles are duck-typed (see :mod:`repro.fabric.handles`).  Backends
register themselves by name; :func:`create_backend` resolves a spec
string like ``"local-process"`` or ``"ssh:hosta,hostb"`` into an
instance.

Every backend must be *bit-identical* to serial execution: a worker
computes exactly what ``repro.api.run`` would in-process.  The
conformance suite (``tests/fabric/test_conformance.py``) enforces this
for every registered backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.fabric.cells import RunSpec


class ExecutionBackend:
    """Base class / protocol for execution backends.

    Subclasses implement the worker mechanics; the driver in
    :mod:`repro.fabric.executor` owns caching, journaling, ordering,
    and retries none of this layer needs to know about.
    """

    #: Registry name ("local-process", "ssh", ...).
    name: str = ""

    def capacity(self) -> int:
        """Maximum useful number of in-flight cells."""
        raise NotImplementedError

    def submit(self, spec: RunSpec):
        """Start one simulation cell; returns a handle immediately."""
        raise NotImplementedError

    def submit_task(self, func: Callable, item, *, label: str = "task"):
        """Start ``func(item, emit)`` as a cancellable task.

        The contract the job service needs: cancellation is a hard kill
        of whatever is computing the task, not a cooperative flag.
        Off-host backends restrict ``func`` to the remote-task
        allowlist (:data:`repro.fabric.cells.REMOTE_TASKS`).
        """
        raise NotImplementedError

    def tick(self) -> None:
        """Pump internal machinery (respawn dead workers, drain IO)."""

    def cancel(self, handle) -> bool:
        return handle.cancel()

    def merge_cache(self, cache) -> int:
        """Merge worker-side ResultCache entries into ``cache``.

        Local backends share the caller's filesystem and have nothing
        to merge; multi-host backends pull what their workers computed
        (or already had cached) back to the submitting side.  Returns
        the number of entries merged.
        """
        return 0

    def close(self) -> None:
        """Release worker resources; the backend is dead afterwards."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------- registry
_REGISTRY: Dict[str, Callable[..., ExecutionBackend]] = {}


def register_backend(name: str,
                     factory: Callable[..., ExecutionBackend]) -> None:
    """Register a backend factory under ``name`` (idempotent override)."""
    _REGISTRY[name] = factory


def backend_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def parse_backend_spec(spec: str) -> Tuple[str, dict]:
    """Split a backend spec string into (name, options).

    ``"local-process"`` -> ``("local-process", {})``;
    ``"ssh:hosta,hostb"`` -> ``("ssh", {"hosts": ["hosta", "hostb"]})``.
    """
    name, _, arg = spec.partition(":")
    options: dict = {}
    if arg:
        if name == "ssh":
            options["hosts"] = [host.strip() for host in arg.split(",")
                                if host.strip()]
        else:
            raise ConfigurationError(
                f"backend {name!r} takes no ':' argument (got {arg!r})")
    return name, options


def create_backend(spec: str = "local-process", *,
                   jobs: Optional[int] = None,
                   **options) -> ExecutionBackend:
    """Instantiate a registered backend from its spec string."""
    # Imported here so registration has happened even when a caller
    # imports this module directly rather than the package.
    import repro.fabric  # noqa: F401  (registers the built-ins)
    name, parsed = parse_backend_spec(spec)
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; registered: "
            f"{', '.join(backend_names())}")
    parsed.update(options)
    return factory(jobs=jobs, **parsed)


# ------------------------------------------------------------------- config
@dataclass
class ExecutionConfig:
    """How a grid (or a single run) should execute.

    The one spelling of worker count, cache, and placement that every
    entry point accepts::

        grid = sweep.run(execution=ExecutionConfig(jobs=4, cache=cache))

    ``backend`` is a spec string (``"local-process"``,
    ``"ssh:hosta,hostb"``) or a ready :class:`ExecutionBackend`
    instance.  ``jobs=None`` means the caller's default (1 for grids;
    :func:`~repro.fabric.cells.default_jobs` for backends created bare).
    ``journal`` is an optional path: the driver then records cell
    states (pending/running/done-in-cache) in an append-only JSONL
    journal so a killed sweep resumes without re-executing done cells
    (requires ``cache``).  ``options`` passes backend-specific knobs
    (``start_method=`` for ``local-process``, ``hosts=[...]`` for
    ``ssh``).
    """

    backend: object = "local-process"
    jobs: Optional[int] = None
    cache: object = None
    progress: Optional[Callable] = None
    journal: Optional[object] = None
    options: dict = field(default_factory=dict)

    def resolve_jobs(self, default: int = 1) -> int:
        if self.jobs is None:
            return default
        return max(1, int(self.jobs))

    def make_backend(self, *, default_jobs_to: int = 1) -> ExecutionBackend:
        if isinstance(self.backend, ExecutionBackend):
            return self.backend
        return create_backend(self.backend or "local-process",
                              jobs=self.resolve_jobs(default_jobs_to),
                              **self.options)
