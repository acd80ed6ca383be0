"""Operational counters for the simulation job service.

The cycle-level metrics in :mod:`repro.obs.metrics` describe *one
simulation*; this module describes the *service around many of them* —
queue depth, dedupe effectiveness, per-tenant wait times, rejection and
timeout counts.  Kept in obs (rather than the service package) so the
service core stays importable without the observability layer.

Counters are monotonic; gauges are supplied by the caller at snapshot
time (the service knows its live queue, the metrics object does not).
"""

from __future__ import annotations

from typing import Dict


#: Counter names the service increments; listed so dashboards (and the
#: smoke test) can rely on every key existing in a snapshot, zero or not.
COUNTERS = (
    "submitted", "completed", "failed", "cancelled", "timeouts",
    "executions", "dedupe_inflight", "dedupe_cache",
    "rejected_queue_depth", "rejected_tenant_depth", "rejected_cost",
    "resumed", "gc_removed",
)


class ServiceMetrics:
    """Monotonic service counters plus per-tenant wait statistics."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._tenants: Dict[str, Dict[str, float]] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _tenant(self, tenant: str) -> Dict[str, float]:
        if tenant not in self._tenants:
            self._tenants[tenant] = {
                "submitted": 0, "completed": 0,
                "wait_seconds_total": 0.0, "wait_seconds_max": 0.0,
                "waits_observed": 0}
        return self._tenants[tenant]

    def tenant_submitted(self, tenant: str) -> None:
        self._tenant(tenant)["submitted"] += 1

    def tenant_completed(self, tenant: str) -> None:
        self._tenant(tenant)["completed"] += 1

    def observe_wait(self, tenant: str, seconds: float) -> None:
        """Record one pending->running queue wait for ``tenant``."""
        record = self._tenant(tenant)
        record["waits_observed"] += 1
        record["wait_seconds_total"] += seconds
        record["wait_seconds_max"] = max(record["wait_seconds_max"], seconds)

    def snapshot(self, **gauges) -> dict:
        """JSON-ready view: counters, gauges, per-tenant wait stats."""
        tenants = {}
        for name, record in sorted(self._tenants.items()):
            waits = record["waits_observed"]
            tenants[name] = {
                "submitted": int(record["submitted"]),
                "completed": int(record["completed"]),
                "wait_seconds_mean": (
                    round(record["wait_seconds_total"] / waits, 6)
                    if waits else 0.0),
                "wait_seconds_max": round(record["wait_seconds_max"], 6),
            }
        return {"counters": dict(self.counters),
                "tenants": tenants,
                "gauges": {key: value for key, value in gauges.items()}}
