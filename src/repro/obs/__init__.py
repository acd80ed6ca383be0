"""Cycle-level observability: structured tracing + live metrics.

Zero-overhead-when-off instrumentation for the simulator (see
docs/observability.md):

* typed :class:`TraceEvent` records emitted from the processor, the
  segmented IQ, the chain manager, the LSQ, and the front end;
* sinks — in-memory ring buffer, JSONL, Chrome ``trace_event`` JSON
  (loadable in ``chrome://tracing`` / Perfetto);
* a metrics layer of periodic samplers streaming windowed time series
  (per-segment occupancy, chain-wire utilization, issue-slot usage,
  ROB/LSQ pressure).

Everything threads through the single run entry point::

    from repro import api
    from repro.obs import ChromeTraceSink, MetricsConfig

    with ChromeTraceSink("trace.json") as sink:
        result = api.run(params, "swim", trace=sink,
                         metrics=MetricsConfig(interval=100))
"""

from repro.obs.events import (EVENT_KINDS, STAGE_KINDS, TraceEvent,
                              event_from_dict)
from repro.obs.metrics import MetricsCollector, MetricsConfig, summarize
from repro.obs.sinks import (ChromeTraceSink, JSONLSink, chrome_trace,
                             dump_jsonl, load_jsonl)
from repro.obs.tracer import RingBufferTracer, Tracer

__all__ = [
    "EVENT_KINDS", "STAGE_KINDS", "TraceEvent", "event_from_dict",
    "MetricsCollector", "MetricsConfig", "summarize",
    "ChromeTraceSink", "JSONLSink", "chrome_trace", "dump_jsonl",
    "load_jsonl", "RingBufferTracer", "Tracer",
]
