"""Memory request objects exchanged between the core and the caches.

Instruction fetch and store writes reach the caches as a
:class:`MemRequest`; loads do not (the LSQ runs the L1D's load access
itself, see :mod:`repro.memory.cache`), but report the same levels.
The compiled memory stage makes the store writes' requests itself, so
the class keeps its fields in slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

#: Where a request was satisfied.  ``delayed`` is the paper's "delayed hit":
#: a load that references a block already being fetched by an earlier miss
#: (it merges into the outstanding MSHR instead of missing again).
LEVEL_L1 = "l1"
LEVEL_L2 = "l2"
LEVEL_MEM = "mem"
LEVEL_DELAYED = "delayed"
LEVEL_FORWARD = "forward"   # store-to-load forwarding inside the LSQ

CompleteCallback = Callable[["MemRequest"], None]
MissCallback = Callable[["MemRequest"], None]


@dataclass(slots=True)
class MemRequest:
    """One cache access.

    ``on_complete`` fires when the data is available (hit latency after a
    hit, full miss path after a miss).  ``on_miss`` fires the moment the
    first-level lookup detects a miss — the segmented IQ uses this to send
    the "suspend self-timing" signal up the chain wire (paper section 3.4).
    """

    addr: int
    is_write: bool = False
    on_complete: Optional[CompleteCallback] = None
    on_miss: Optional[MissCallback] = None
    #: Filled in by the hierarchy when the request completes.
    level: Optional[str] = None
    completed_cycle: int = -1

    def complete(self, level: str, now: int) -> None:
        self.level = level
        self.completed_cycle = now
        if self.on_complete is not None:
            self.on_complete(self)

    def notify_miss(self) -> None:
        if self.on_miss is not None:
            self.on_miss(self)
