"""A discrete event queue keyed by simulation cycle.

The memory hierarchy is event-driven (cache fills, bus transfers, memory
returns) while the core is cycle-stepped.  The processor drains all events
scheduled for the current cycle at the top of each tick.

Events scheduled for the same cycle fire in insertion order, which keeps the
simulation deterministic.

An event is a plain record, ``callback()``, or a *typed* record
``(callback, arg)`` that fires as ``callback(arg, cycle)``: the processor
schedules each instruction's completion as ``(complete, inst)``, so no
closure is allocated per instruction, and the compiled queue runs the
compiled issue stage's completions without entering Python at all.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Tuple

from repro.common.errors import SimulationError

Event = Callable[..., None]


class EventQueue:
    """Min-heap of (cycle, sequence, callback, arg) with stable ordering.

    ``arg`` None marks a plain ``callback()`` record."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event, Any]] = []
        self._sequence = itertools.count()
        self.now = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay: int, callback: Event, arg: Any = None) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now (as
        ``callback(arg, cycle)`` when ``arg`` is given)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, next(self._sequence),
                                    callback, arg))

    def schedule_at(self, cycle: int, callback: Event,
                    arg: Any = None) -> None:
        """Schedule ``callback`` to run at absolute ``cycle`` (as
        ``callback(arg, cycle)`` when ``arg`` is given)."""
        if cycle < self.now:
            raise SimulationError(
                f"cannot schedule event at cycle {cycle} (now={self.now})")
        heapq.heappush(self._heap, (cycle, next(self._sequence), callback,
                                    arg))

    def advance_to(self, cycle: int) -> None:
        """Move time forward to ``cycle``, firing all due events in order."""
        if cycle < self.now:
            raise SimulationError(f"time cannot go backwards ({cycle} < {self.now})")
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            when, _seq, callback, arg = heapq.heappop(heap)
            self.now = when
            if arg is None:
                callback()
            else:
                callback(arg, when)
        self.now = cycle

    def next_event_cycle(self) -> int:
        """Cycle of the earliest pending event, or -1 if none."""
        return self._heap[0][0] if self._heap else -1


# The pure-Python queue stays importable as _PyEventQueue; when the compiled
# kernel extension is present (and REPRO_KERNELS != "py" at import time) the
# public name rebinds to its C implementation — same heap order, same
# reentrancy semantics, same typed records, same error messages.
_PyEventQueue = EventQueue

from repro.common._ckload import compiled_kernels as _compiled_kernels

_ck = _compiled_kernels()
if _ck is not None:
    EventQueue = _ck.EventQueue
del _ck, _compiled_kernels
