"""Job specifications, canonicalization, and the worker entry point.

A *job* is one unit of work a tenant submits to the service:

* ``run``       — one full-detail simulation cell (:func:`repro.api.run`);
* ``sample``    — one sampled-simulation estimate (``sampling=``);
* ``surrogate`` — one analytical IPC prediction (:func:`repro.api.predict`);
* ``sweep``     — a (workload x config) grid, expanded at submission into
  child ``run`` jobs so cell-level dedupe and journal resume apply per
  cell (the parent aggregates).  With ``"surrogate": true`` the service
  additionally prunes cells the calibrated analytical model rules out,
  reporting them as instant-done ``surrogate_result`` children.

Every job normalizes to a canonical payload dict and hashes to a
**content key**.  For plain ``run`` jobs the key *is* the
:func:`repro.harness.cache.run_key` — the same hash the
:class:`~repro.harness.cache.ResultCache` uses — so "is this job already
answered?" and "is this cell cached?" are one lookup, and two tenants
submitting the same cell collapse onto one execution (or zero, if the
cell is cached).  Other kinds hash their canonical payload plus the
source-version token.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.params import ProcessorParams
from repro.harness import configs
from repro.harness.cache import (canonical_params, run_key,
                                 source_version_token)
from repro.workloads import WORKLOADS

# ------------------------------------------------------------- lifecycle --
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

JOB_KINDS = ("run", "sample", "surrogate", "sweep")

#: Trace-artifact formats a ``run`` job may request.
TRACE_FORMATS = {"jsonl": ".jsonl", "chrome": ".json"}


class JobSpecError(ValueError):
    """A submission payload the service refuses (HTTP 400)."""


# ----------------------------------------------------------- config spec --
#: CLI-shaped configuration keys accepted in a job's ``config`` object.
_CONFIG_KEYS = frozenset({"iq", "size", "segment_size", "chains", "variant",
                          "event_driven"})


def build_params(config: Optional[dict]) -> ProcessorParams:
    """A validated ``ProcessorParams`` from a job's ``config`` object.

    Mirrors the CLI's configuration surface (``--iq/--size/--chains/
    --variant/--segment-size/--no-skip``) so a submission is the same
    vocabulary as a command line.  Raises :class:`JobSpecError` on
    unknown keys or invalid combinations.
    """
    config = dict(config or {})
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise JobSpecError(
            f"unknown config keys {sorted(unknown)}; "
            f"accepted: {sorted(_CONFIG_KEYS)}")
    kind = config.get("iq", "segmented")
    size = int(config.get("size", 512))
    chains = config.get("chains", 128)
    if chains in ("unlimited", "none", None):
        chains = None
    else:
        chains = int(chains)
    variant = config.get("variant", "comb")
    try:
        if kind == "ideal":
            params = configs.ideal(size)
        elif kind == "segmented":
            params = configs.segmented(
                size, chains, variant,
                segment_size=int(config.get("segment_size", 32)))
        elif kind == "prescheduled":
            params = configs.prescheduled(max(1, (size - 32) // 12))
        elif kind == "distance":
            params = configs.distance(max(1, (size - 32) // 12))
        elif kind == "fifo":
            params = configs.fifo(size,
                                  depth=int(config.get("segment_size", 32)))
        elif kind == "delay_tracking":
            params = configs.delay_tracking(size)
        else:
            raise JobSpecError(
                f"unknown iq kind {kind!r}; accepted: ideal, segmented, "
                "prescheduled, distance, fifo, delay_tracking")
        if config.get("event_driven") is False:
            params = params.replace(event_driven=False)
        params.validate()
    except JobSpecError:
        raise
    except Exception as exc:            # noqa: BLE001 — bad spec, not a bug
        raise JobSpecError(f"invalid config: {exc}") from exc
    return params


# ------------------------------------------------------------- job specs --
@dataclass
class JobSpec:
    """A normalized, validated submission.

    ``payload`` is canonical (defaults filled in, keys whitelisted) and
    is what gets journaled, so a resumed server re-creates exactly the
    same work.  ``key`` is the content hash dedupe operates on.
    """

    kind: str
    payload: dict
    key: str
    #: Admission/fairness cost estimate (instruction budget by default;
    #: the service may override with a surrogate estimate).
    cost: float
    #: Cells a sweep expands into: (workload, label, config) triples.
    cells: List[tuple] = field(default_factory=list)

    @property
    def cacheable(self) -> bool:
        """True when the ResultCache can answer/store this job."""
        return self.kind == "run" and not self.payload.get("trace")

    def params(self) -> ProcessorParams:
        return build_params(self.payload.get("config"))


def _budget(payload: dict) -> int:
    """Instruction budget of one cell (the default cost unit)."""
    spec = WORKLOADS[payload["workload"]]
    budget = payload.get("max_instructions")
    if budget is None:
        budget = spec.default_instructions
    return int(budget) * int(payload.get("scale", 1))


def _canonical_hash(kind: str, payload: dict) -> str:
    body = json.dumps({"kind": kind, "payload": payload,
                       "token": source_version_token()},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _normalize_run_like(kind: str, body: dict) -> dict:
    workload = body.get("workload")
    if workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        raise JobSpecError(f"unknown workload {workload!r}; known: {known}")
    payload = {
        "workload": workload,
        "config": dict(body.get("config") or {}),
        "max_instructions": body.get("max_instructions"),
        "scale": int(body.get("scale", 1)),
        "max_cycles": int(body.get("max_cycles", 5_000_000)),
        "warm_code": bool(body.get("warm_code", True)),
    }
    if payload["scale"] < 1:
        raise JobSpecError("scale must be >= 1")
    if payload["max_instructions"] is not None:
        payload["max_instructions"] = int(payload["max_instructions"])
        if payload["max_instructions"] < 1:
            raise JobSpecError("max_instructions must be >= 1")
    if kind == "run":
        trace = body.get("trace")
        if trace:
            if trace not in TRACE_FORMATS:
                raise JobSpecError(
                    f"unknown trace format {trace!r}; "
                    f"accepted: {sorted(TRACE_FORMATS)}")
            payload["trace"] = trace
    if kind == "sample":
        sampling = dict(body.get("sampling") or {})
        unknown = set(sampling) - {"windows", "warmup", "measure", "seed"}
        if unknown:
            raise JobSpecError(f"unknown sampling keys {sorted(unknown)}")
        payload["sampling"] = {
            "windows": int(sampling.get("windows", 10)),
            "warmup": int(sampling.get("warmup", 500)),
            "measure": int(sampling.get("measure", 500)),
            "seed": int(sampling.get("seed", 0)),
        }
    return payload


def normalize(body: dict) -> JobSpec:
    """Validate a raw submission body into a :class:`JobSpec`.

    Raises :class:`JobSpecError` with a client-presentable message on
    anything malformed; nothing here executes simulation work.
    """
    if not isinstance(body, dict):
        raise JobSpecError("submission body must be a JSON object")
    kind = body.get("kind", "run")
    if kind not in JOB_KINDS:
        raise JobSpecError(
            f"unknown job kind {kind!r}; accepted: {list(JOB_KINDS)}")

    if kind == "sweep":
        workloads = body.get("workloads") or (
            [body["workload"]] if body.get("workload") else [])
        if not workloads:
            raise JobSpecError("sweep needs workloads=[...]")
        config_list = body.get("configs")
        if not config_list or not isinstance(config_list, list):
            raise JobSpecError(
                "sweep needs configs=[{label, ...config...}, ...]")
        cells = []
        labels = set()
        for entry in config_list:
            entry = dict(entry)
            label = entry.pop("label", None)
            if not label:
                raise JobSpecError("every sweep config needs a label")
            if label in labels:
                raise JobSpecError(f"duplicate sweep config label {label!r}")
            labels.add(label)
            build_params(entry)          # validate early, per config
            for workload in workloads:
                if workload not in WORKLOADS:
                    raise JobSpecError(f"unknown workload {workload!r}")
                cells.append((workload, label, entry))
        payload = {
            "workloads": list(workloads),
            "configs": [dict(entry) for entry in config_list],
            "max_instructions": (int(body["max_instructions"])
                                 if body.get("max_instructions") is not None
                                 else None),
            # Opt-in Pareto-band surrogate pruning: cells the analytical
            # model can rule out are answered as instant-done
            # "surrogate_result" children instead of executing.
            "surrogate": bool(body.get("surrogate", False)),
        }
        cost = 0.0
        for workload, _label, _config in cells:
            cost += _budget({"workload": workload,
                             "max_instructions": payload["max_instructions"],
                             "scale": 1})
        return JobSpec(kind=kind, payload=payload,
                       key=_canonical_hash(kind, payload),
                       cost=cost, cells=cells)

    payload = _normalize_run_like(kind, body)
    params = build_params(payload["config"])
    if kind == "run" and not payload.get("trace"):
        # The content key IS the cache key: dedupe against the
        # ResultCache and against in-flight twins is one hash.
        key = run_key(payload["workload"], params,
                      max_instructions=payload["max_instructions"],
                      scale=payload["scale"],
                      max_cycles=payload["max_cycles"],
                      warm_code=payload["warm_code"])
    else:
        # Traced/sampled/surrogate jobs are keyed on the canonical
        # payload (params included, canonicalized) + source token.
        keyed = dict(payload)
        keyed["params"] = canonical_params(params)
        key = _canonical_hash(kind, keyed)
    cost = float(_budget(payload))
    if kind == "surrogate":
        cost = max(1.0, cost / 100.0)    # a functional pass, not a sim
    if kind == "sample":
        sampling = payload["sampling"]
        cost = float(sampling["windows"]
                     * (sampling["warmup"] + sampling["measure"]))
    return JobSpec(kind=kind, payload=payload, key=key, cost=cost)


# ------------------------------------------------------------ job record --
@dataclass
class Job:
    """One submitted job and everything the service tracks about it."""

    id: str
    kind: str
    key: str
    tenant: str
    payload: dict
    cost: float
    timeout: float
    state: str = PENDING
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Set when this job shares another job's execution (in-flight dedupe).
    shared_with: Optional[str] = None
    #: Jobs riding this job's execution.
    attached: List[str] = field(default_factory=list)
    #: "cache" | "inflight" | None — how this job avoided an execution.
    dedupe: Optional[str] = None
    #: Sweep linkage.
    parent: Optional[str] = None
    children: List[str] = field(default_factory=list)
    error: Optional[str] = None
    #: Result payload (RunResult dict / prediction dict / sweep grid).
    result: Optional[dict] = None
    #: Store-relative artifact filename (trace output), when requested.
    artifact: Optional[str] = None
    #: True when this job was re-enqueued by journal replay.
    resumed: bool = False
    #: Heartbeat/state event ring buffer (not journaled).
    events: List[dict] = field(default_factory=list)
    _event_seq: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def add_event(self, kind: str, buffer_limit: int = 256,
                  **data) -> dict:
        self._event_seq += 1
        event = {"seq": self._event_seq, "event": kind,
                 "t": round(time.time(), 3), **data}
        self.events.append(event)
        if len(self.events) > buffer_limit:
            del self.events[:len(self.events) - buffer_limit]
        return event

    def events_since(self, since: int) -> List[dict]:
        return [event for event in self.events if event["seq"] > since]

    def to_dict(self, *, include_result: bool = True) -> dict:
        record = {
            "id": self.id, "kind": self.kind, "key": self.key,
            "tenant": self.tenant, "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cost": self.cost, "timeout": self.timeout,
            "dedupe": self.dedupe, "shared_with": self.shared_with,
            "parent": self.parent, "children": list(self.children),
            "error": self.error, "artifact": self.artifact,
            "resumed": self.resumed, "payload": self.payload,
        }
        if include_result:
            record["result"] = self.result
        return record


def result_to_dict(result) -> dict:
    """A RunResult (or already-plain dict) as a JSON-ready dict."""
    if isinstance(result, dict):
        return result
    return {"workload": result.workload, "config": result.config,
            "ipc": result.ipc, "cycles": result.cycles,
            "instructions": result.instructions, "stats": result.stats,
            "metrics": result.metrics}


# ---------------------------------------------------------- worker entry --
def execute_job(payload: dict, emit) -> dict:
    """Run one job inside its dedicated worker process
    (:func:`repro.fabric.local.submit_detached`); ``emit`` streams
    heartbeat dicts back to the service.

    Module-level and dict-in/dict-out so it pickles under any start
    method.  Sweep parents never reach here — they expand to ``run``
    children at submission.
    """
    from repro import api
    from repro.service.jobs import build_params as _build

    kind = payload["kind"]
    params = _build(payload.get("config"))

    def tick(t) -> None:
        # Full-detail runs stream ProgressTick objects; the sampled path
        # streams plain status lines.  Both become heartbeat events.
        if hasattr(t, "cycle"):
            emit({"cycle": t.cycle, "committed": t.committed,
                  "elapsed_seconds": round(t.elapsed_seconds, 3),
                  "kcycles_per_sec": round(t.kcycles_per_sec, 3)})
        else:
            emit({"message": str(t)})

    if kind == "surrogate":
        prediction = api.predict(params, payload["workload"],
                                 scale=payload.get("scale", 1),
                                 max_instructions=payload
                                 .get("max_instructions"))
        return {"workload": payload["workload"],
                "config": params.iq.kind,
                "ipc": prediction.ipc,
                "bounds": prediction.bounds,
                "binding": prediction.binding,
                "uncertainty": prediction.uncertainty,
                "calibrated": prediction.calibrated,
                "surrogate": True}

    sampling = None
    if kind == "sample":
        from repro.sampling import SamplingConfig
        knobs = payload["sampling"]
        sampling = SamplingConfig(num_windows=knobs["windows"],
                                  warmup_instructions=knobs["warmup"],
                                  measure_instructions=knobs["measure"],
                                  seed=knobs["seed"])

    result = api.run(params, payload["workload"],
                     config_label=payload.get("config_label", ""),
                     scale=payload.get("scale", 1),
                     max_instructions=payload.get("max_instructions"),
                     max_cycles=payload.get("max_cycles", 5_000_000),
                     warm_code=payload.get("warm_code", True),
                     sampling=sampling,
                     trace=payload.get("trace_path") or None,
                     progress=tick,
                     progress_interval=payload.get("progress_interval", 0.5))
    return result_to_dict(result)
