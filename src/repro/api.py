"""The single programmatic entry point for running one simulation.

:func:`run` is what every in-repo caller — the CLI, :class:`Sweep`,
:class:`Experiment`, the bench, the validation campaign — goes through.
It composes the features that used to require picking the right helper
by hand:

* **observability** — ``trace=`` accepts a :class:`~repro.obs.Tracer`
  or a path (``.jsonl`` streams JSONL, anything else writes Chrome
  ``trace_event`` JSON); ``metrics=`` accepts a
  :class:`~repro.obs.MetricsConfig`, a sampling interval, or a ready
  :class:`~repro.obs.MetricsCollector` and lands the report in
  ``RunResult.metrics``;
* **result caching** — ``execution=ExecutionConfig(cache=...)``
  consults a :class:`~repro.harness.cache.ResultCache` (only for plain
  runs: traced or metered runs always simulate, because their value
  *is* the instrumentation);
* **functional records** — the correct-path stream of each (workload,
  scale, budget) is recorded on its first run in the process and
  replayed by every later run of it, under any configuration (see
  :mod:`repro.isa.record`).
"""

from __future__ import annotations

from typing import Optional

from repro.common.params import ProcessorParams
from repro.fabric.cells import relabel
from repro.fabric.executor import ExecutionConfig
from repro.harness.runner import RunResult, resolve_workload
from repro.isa.executor import execute
from repro.isa.record import RecordMemo, Recording
from repro.pipeline.processor import Processor

#: This process's functional records: the correct-path stream of each
#: (workload name, build callable, scale, budget) run so far.  The stream
#: depends on nothing else, so every later run of the same cell, under
#: any processor configuration, replays it instead of executing it.
_records = RecordMemo()


class _Identity:
    """Hashes and compares its object by identity, so that two workload
    specs with the same name but different ``build`` callables never
    share a record, whatever equality the callables define."""

    __slots__ = ("obj",)

    def __init__(self, obj) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other) -> bool:
        return type(other) is _Identity and other.obj is self.obj


def _open_trace_sink(target: str):
    """Path -> sink: ``.jsonl`` streams lines, anything else buffers and
    writes Chrome ``trace_event`` JSON on close."""
    from repro.obs.sinks import ChromeTraceSink, JSONLSink
    if target.endswith(".jsonl"):
        return JSONLSink(target)
    return ChromeTraceSink(target)


def run(params: ProcessorParams, workload, *,
        config_label: str = "",
        scale: int = 1,
        max_instructions: Optional[int] = None,
        max_cycles: int = 5_000_000,
        warm_code: bool = True,
        trace=None,
        metrics=None,
        execution: Optional[ExecutionConfig] = None,
        progress=None,
        progress_interval: float = 5.0) -> RunResult:
    """Simulate ``workload`` under ``params`` and return a RunResult.

    Parameters
    ----------
    params:
        The processor configuration (validated by the processor).
    workload:
        A registered workload name or a ``WorkloadSpec``.
    config_label:
        Display label for the configuration (defaults to the IQ kind).
    scale / max_instructions / max_cycles / warm_code:
        Simulation budget knobs (stream length multiplier, instruction
        and cycle caps, warm-fetch of the kernel's code footprint).
    trace:
        ``None`` (off), a tracer object with an ``emit`` method, or a
        path string.  Sinks the API opens from a path are closed before
        returning; caller-supplied tracers are left open.
    metrics:
        ``None`` (off), a :class:`~repro.obs.MetricsConfig`, an ``int``
        sampling interval, or a :class:`~repro.obs.MetricsCollector`.
        The windowed time-series report lands in ``RunResult.metrics``.
    execution:
        An optional :class:`~repro.fabric.ExecutionConfig` — the same
        object :meth:`Sweep.run` and :meth:`Experiment.run` accept.  Its
        ``cache`` is a :class:`~repro.harness.cache.ResultCache`
        consulted for plain runs (no trace, no metrics) and populated on
        miss.  Its ``jobs`` is ignored: a run is a single cell.
    progress / progress_interval:
        Heartbeat callback receiving
        :class:`~repro.pipeline.processor.ProgressTick` records roughly
        every ``progress_interval`` wall-clock seconds.

    A simulated run draws its stream from this process's functional
    record of ``(workload name, workload build callable, scale,
    budget)`` when there is one: no ``build``, no data-image copy, no
    functional execution, and the same results.  Otherwise it builds
    the program, executes it and records the stream, keeping the record
    only if the run finished (an ``ExecutionError`` or a ``max_cycles``
    cut-off keeps none).
    """
    cache = execution.cache if execution is not None else None
    # Plain (cacheable) runs only: instrumented runs always simulate.
    cacheable = trace is None and metrics is None and cache is not None
    spec = resolve_workload(workload)
    key = None
    if cacheable:
        key = cache.key_for(spec.name, params,
                            max_instructions=max_instructions,
                            scale=scale, max_cycles=max_cycles,
                            warm_code=warm_code)
        hit = cache.get(key)
        if hit is not None:
            return relabel(hit, config_label)

    tracer = trace
    owns_sink = False
    if isinstance(trace, str):
        tracer = _open_trace_sink(trace)
        owns_sink = True

    collector = metrics
    if collector is not None and not hasattr(collector, "sample"):
        from repro.obs.metrics import MetricsCollector
        collector = MetricsCollector(collector)

    budget = (max_instructions if max_instructions is not None
              else spec.default_instructions * scale)
    record_key = (spec.name, _Identity(spec.build), scale, budget)
    source = _records.get(record_key)
    recording = None
    if source is None:
        source = spec.build(scale)
        recording = Recording(source)
        stream = recording.stream(execute(source, max_instructions=budget))
    else:
        stream = execute(source, max_instructions=budget)
    try:
        processor = Processor(params, stream, tracer=tracer,
                              metrics=collector)
        if warm_code:
            processor.warm_code(source)
        if spec.warm_data:
            processor.warm_data(source)
        processor.run(max_cycles=max_cycles, progress=progress,
                      progress_interval=progress_interval)
    finally:
        if owns_sink:
            # Fold the metrics report into Chrome counter tracks when the
            # sink supports it, then flush the file.
            if collector is not None and hasattr(tracer, "metrics"):
                tracer.metrics = collector.to_dict()
            tracer.close()

    result = RunResult(
        workload=spec.name,
        config=config_label or params.iq.kind,
        ipc=processor.ipc,
        cycles=processor.cycle,
        instructions=processor.committed,
        stats=processor.stats.as_dict(),
        metrics=collector.to_dict() if collector is not None else None)
    if (recording is not None and recording.record is not None
            and processor.done):
        _records.put(record_key, recording.record)
    if key is not None:
        cache.put(key, result)
    return result


def predict(params: ProcessorParams, workload, *,
            scale: int = 1,
            max_instructions: Optional[int] = None,
            surrogate=None):
    """Predict IPC analytically instead of simulating (the surrogate).

    Returns a :class:`~repro.harness.surrogate.SurrogatePrediction` from
    the Carroll-Lin-style queuing model over a one-pass functional
    profile — no cycle-accurate simulation.  Pass a calibrated
    :class:`~repro.harness.surrogate.Surrogate` as ``surrogate`` to
    reuse its profile cache and per-(workload, kind) anchors.
    """
    from repro.harness.surrogate import Surrogate
    spec = resolve_workload(workload)
    params.validate()
    if surrogate is None:
        surrogate = Surrogate(scale=scale, max_instructions=max_instructions)
    return surrogate.predict(spec.name, params)
