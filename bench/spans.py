"""Outside-in per-layer timing for the benchmark's traced run.

Timing wrappers are installed around the public entry points of each
layer of the simulator (the table in :data:`LAYERS`), from benchmark
code, and removed again afterwards; ``src/`` is not modified.  Every
wrapped call is a span.  A span's *self* time is its duration minus the
spans it contains, so the self times of all layers sum exactly, in
integer nanoseconds, to the root spans the benchmark opened around its
calls into the program (``api.run`` for a cell, ``Sweep.run`` for a
pass).

Per-cycle calls are folded into per-(cell, layer) accumulators, so
memory stays flat; only cell-level spans (build, ``api.run``, cache
get/put, journal record, ...) are kept individually.  Everything is
written out when the run ends (:func:`chrome_trace`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import types
from typing import Dict, List, Optional, Tuple


def _iq_classes() -> list:
    """Every instruction-queue design class (all of ``repro.core``)."""
    import repro.core
    from repro.core.iq_base import InstructionQueue
    for module in pkgutil.walk_packages(repro.core.__path__, "repro.core."):
        importlib.import_module(module.name)
    found, todo = [], [InstructionQueue]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _analog_specs() -> list:
    from repro.workloads import WORKLOADS
    return list(WORKLOADS.values())


def _owner(path: str):
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


#: layer -> (level, [(owners, method names)]).  ``owners`` is a dotted
#: class or module path, or a callable returning owner objects.  The
#: ``cell`` level is wrapped around whole passes of a sweep too; the
#: ``sim`` level only around in-process cells.
LAYERS: Dict[str, Tuple[str, list]] = {
    "harness.run": ("cell", [("repro.api", ["run"])]),
    "harness.key": ("cell", [("repro.harness.cache.ResultCache",
                              ["key_for"])]),
    "harness.cache_get": ("cell", [("repro.harness.cache.ResultCache",
                                    ["get"])]),
    "harness.cache_put": ("cell", [("repro.harness.cache.ResultCache",
                                    ["put"])]),
    "harness.sweep": ("cell", [("repro.harness.sweep.Sweep", ["run"])]),
    "fabric.executor": ("cell", [("repro.fabric.executor.Executor",
                                  ["run_specs"])]),
    "fabric.journal_record": ("cell", [(
        "repro.fabric.journal.SweepJournal", ["record"])]),
    "workloads.build": ("cell", [(_analog_specs, ["build"])]),
    "isa.execute": ("sim", [("repro.api", ["execute"])]),
    "frontend.cycle": ("sim", [("repro.frontend.fetch.FrontEnd",
                                ["cycle"])]),
    "frontend.probe": ("sim", [("repro.frontend.fetch.FrontEnd",
                                ["next_event_cycle", "skip_cycles",
                                 "peek_dispatchable"])]),
    "pipeline.step": ("sim", [("repro.pipeline.processor.Processor",
                               ["run", "step"])]),
    "pipeline.probe": ("sim", [("repro.pipeline.processor.Processor",
                                ["_next_active_cycle"])]),
    "pipeline.lsq": ("sim", [("repro.pipeline.lsq.LoadStoreQueue",
                              ["cycle", "dispatch", "address_ready",
                               "commit", "has_candidates",
                               "skip_cycles"])]),
    "core.iq_cycle": ("sim", [(_iq_classes, ["cycle"])]),
    "core.iq_dispatch": ("sim", [(_iq_classes, ["can_dispatch",
                                                "dispatch"])]),
    "core.iq_issue": ("sim", [(_iq_classes, ["select_issue"])]),
    "core.iq_probe": ("sim", [(_iq_classes, [
        "next_event_cycle", "skip_cycles", "skip_blocked_dispatch",
        "blocked_dispatch_wake"])]),
    "core.iq_writeback": ("sim", [(_iq_classes, [
        "on_writeback", "notify_load_miss", "notify_load_complete"])]),
    "memory.access": ("sim", [
        ("repro.memory.hierarchy.MemoryHierarchy", ["data_access"]),
        ("repro.memory.cache.Cache", ["access", "touch", "access_line",
                                      "_fill_arrived"]),
        ("repro.memory.cache.MainMemory", ["access_line"])]),
    "common.events": ("sim", [("repro.common.events.EventQueue",
                               ["schedule", "schedule_at", "advance_to",
                                "next_event_cycle"])]),
}


class Recorder:
    """Span stack, per-(cell, layer) self-time accumulators, cell spans."""

    def __init__(self) -> None:
        self.stack: List[list] = []          # [key, start_ns, child_ns]
        self.cell: Optional[str] = None
        self.layers: Dict[str, int] = {}     # the current cell's
        self.cells: Dict[Optional[str], Dict[str, int]] = {}
        self.totals: Dict[Optional[str], int] = {}
        self.calls: Dict[str, int] = {}      # "layer:method" -> calls
        self.spans: List[tuple] = []         # (cell, key, start, end)
        self.insts = 0                       # instructions the ISA yielded
        #: Layers whose owner type cannot take a wrapper (compiled types).
        self.unavailable: List[str] = []
        #: "layer:method" entries the tree under test lacks.
        self.missing: List[str] = []
        self._undo: List[tuple] = []

    # ------------------------------------------------------------ cells --
    def begin_cell(self, cell: str) -> None:
        """Attribute the spans that follow to ``cell``."""
        self.cell = cell
        self.layers = self.cells.setdefault(cell, {})

    # --------------------------------------------------------- wrapping --
    def wrap(self, func, layer: str, key: str, keep_span: bool):
        """``func`` timed as one span of ``layer`` per call."""
        clock = time.perf_counter_ns
        stack = self.stack
        calls = self.calls
        calls.setdefault(key, 0)

        @functools.wraps(func)
        def timed(*args, **kwargs):
            if stack and stack[-1][0] is key:
                return func(*args, **kwargs)     # super() into itself
            frame = [key, clock(), 0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - frame[1]
                layers = self.layers
                layers[layer] = layers.get(layer, 0) + span - frame[2]
                calls[key] += 1
                if stack:
                    stack[-1][2] += span
                else:
                    self.totals[self.cell] = (self.totals.get(self.cell, 0)
                                              + span)
                if keep_span:
                    self.spans.append((self.cell, key, frame[1], end))
        return timed

    def install(self, levels=("cell", "sim"), specs=()) -> None:
        """Wrap every layer of the given levels (see :data:`LAYERS`);
        ``specs`` are workload specs outside the registry to time too."""
        if "cell" in levels:
            for spec in specs:
                self._patch(spec, "build", "workloads.build", True)
        for layer, (level, targets) in LAYERS.items():
            if level not in levels:
                continue
            for owners, methods in targets:
                found = owners() if callable(owners) else [_owner(owners)]
                for owner in found:
                    for method in methods:
                        self._patch(owner, method, layer, level == "cell")

    def _patch(self, owner, method: str, layer: str,
               keep_span: bool) -> None:
        key = _intern(f"{layer}:{method}")
        if isinstance(owner, type):
            # Wrap a method only on the class that defines it, so
            # inherited methods are timed once.
            original = vars(owner).get(method)
            if original is None:
                if not hasattr(owner, method) and key not in self.missing:
                    self.missing.append(key)
                return
            if not inspect.isfunction(original):
                if (isinstance(original, _COMPILED)
                        and layer not in self.unavailable):
                    self.unavailable.append(layer)
                return
        else:
            original = getattr(owner, method, None)
            if original is None:
                if key not in self.missing:
                    self.missing.append(key)
                return
        if layer == "isa.execute":
            wrapper = self._timed_execute(original, key)
        else:
            wrapper = self.wrap(original, layer, key, keep_span)
        _set(owner, method, wrapper)
        self._undo.append((owner, method, original))

    def _timed_execute(self, execute, key: str):
        """``execute`` whose call and whose every ``next`` are spans."""
        start = self.wrap(execute, "isa.execute", key, False)
        next_key = _intern("isa.execute:next")
        recorder = self

        class TimedStream:
            __slots__ = ("_next",)

            def __init__(self, stream) -> None:
                self._next = recorder.wrap(stream.__next__, "isa.execute",
                                           next_key, False)

            def __iter__(self):
                return self

            def __next__(self):
                inst = self._next()
                recorder.insts += 1
                return inst

        @functools.wraps(execute)
        def timed_execute(*args, **kwargs):
            return TimedStream(start(*args, **kwargs))
        return timed_execute

    def restore(self) -> None:
        """Put back every original the recorder replaced."""
        while self._undo:
            owner, method, original = self._undo.pop()
            _set(owner, method, original)

    # ---------------------------------------------------------- results --
    def layer_seconds(self) -> Dict[str, float]:
        out: Dict[str, int] = {}
        for layers in self.cells.values():
            for layer, ns in layers.items():
                out[layer] = out.get(layer, 0) + ns
        return {layer: ns / 1e9 for layer, ns in sorted(out.items())}

    def summary(self) -> dict:
        """Self seconds, share of cell time and calls per layer."""
        total_ns = sum(self.totals.values())
        self_ns = sum(ns for layers in self.cells.values()
                      for ns in layers.values())
        layers = {}
        for layer, seconds in self.layer_seconds().items():
            layers[layer] = {
                "self_s": seconds,
                "share": seconds * 1e9 / total_ns if total_ns else 0.0,
                "calls": {key.split(":", 1)[1]: count
                          for key, count in self.calls.items()
                          if key.split(":", 1)[0] == layer}}
        return {"total_s": total_ns / 1e9, "self_sum_s": self_ns / 1e9,
                "sum_exact": total_ns == self_ns, "layers": layers,
                "calls": dict(self.calls),
                "unavailable": list(self.unavailable),
                "missing": list(self.missing)}

    def calls_of(self, layer: str, method: str) -> int:
        return self.calls.get(f"{layer}:{method}", 0)


#: Method types of compiled (C) classes, which take no wrapper.
_COMPILED = (types.MethodDescriptorType, types.WrapperDescriptorType,
             types.BuiltinFunctionType)

_KEYS: Dict[str, str] = {}


def _intern(key: str) -> str:
    """One string object per key, so the re-entry test can use ``is``."""
    return _KEYS.setdefault(key, key)


def _set(owner, name: str, value) -> None:
    if isinstance(owner, type) or inspect.ismodule(owner):
        setattr(owner, name, value)
    else:                            # frozen dataclass (WorkloadSpec)
        object.__setattr__(owner, name, value)


def chrome_trace(name: str, recorder: Recorder) -> dict:
    """Cell-level spans and per-layer accumulators as ``trace_event`` JSON.

    Follows ``repro.obs.sinks.chrome_trace``: ``M`` records name the
    process and lane, ``X`` slices are spans and ``C`` records are
    counter tracks.  Lane 0 holds the cell-level spans (nested by time),
    and a stacked counter gives each cell's self milliseconds per layer
    at the cell's end.  Time is host microseconds since the first span.
    """
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": f"bench {name}"}},
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "cell-level spans"}}]
    spans = sorted(recorder.spans, key=lambda span: span[2])
    epoch = spans[0][2] if spans else 0
    ends: Dict[Optional[str], int] = {}
    for cell, key, start, end in spans:
        layer, _, method = key.partition(":")
        events.append({"name": f"{layer}.{method}", "cat": layer, "ph": "X",
                       "ts": (start - epoch) / 1e3,
                       "dur": (end - start) / 1e3, "pid": 0, "tid": 0,
                       "args": {"cell": cell}})
        ends[cell] = max(ends.get(cell, 0), end)
    for cell, layers in recorder.cells.items():
        if cell in ends:
            events.append({"name": "layer self ms", "ph": "C",
                           "ts": (ends[cell] - epoch) / 1e3, "pid": 0,
                           "tid": 0,
                           "args": {layer: ns / 1e6 for layer, ns
                                    in sorted(layers.items())}})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"clock": "host microseconds",
                          "source": "bench/spans.py"}}
