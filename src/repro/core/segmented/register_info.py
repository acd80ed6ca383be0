"""Register information table (paper section 3.3).

Indexed by architected register, the table records how the value of each
register will be produced: the chain that produces it, the expected latency
of the value relative to the chain head's issue, and — for chainless
producers — the absolute cycle the value is expected to become available.
The dispatch stage reads it to assign chains and initial delay values, and
writes the destination entry of every dispatched instruction (the kernel
engine's ``plan`` reads it, its ``dispatch`` writes it, on both
backends).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.segmented.chains import Chain
from repro.isa.instruction import DynInst


class RITEntry:
    """How one architected register's next value is being produced."""

    __slots__ = ("producer", "chain", "dh", "expected_ready")

    def __init__(self, producer: DynInst, chain: Optional[Chain],
                 dh: int, expected_ready: int) -> None:
        self.producer = producer
        self.chain = chain
        self.dh = dh                       # latency behind chain-head issue
        self.expected_ready = expected_ready  # for chainless producers


class RegisterInfoTable:
    """Maps architected registers to their producing chain and latency.

    Keys are ``thread * 64 + reg`` so SMT threads never alias each
    other's registers."""

    def __init__(self) -> None:
        self._entries: Dict[int, RITEntry] = {}
