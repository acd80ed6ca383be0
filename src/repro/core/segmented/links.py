"""Delay-value links: how an IQ entry's delay is derived from its operands.

An entry carries up to two links (one per outstanding operand):

* :class:`ChainLink` — the operand is produced ``dh`` cycles behind a chain
  head; the delay tracks the chain's status (paper section 3.2).
* :class:`CountdownLink` — the operand's arrival cycle is known (producer
  already issued, or chainless prediction); the delay simply counts down.
  This corresponds to an entry that dispatches directly in self-timed mode.

The entry's delay value is the maximum over its links (the later-arriving
operand governs promotion, paper section 3.2).
"""

from __future__ import annotations

from repro.core.segmented.chains import Chain

#: Sentinel for "this link cannot become eligible until a chain event".
NEVER = 1 << 60


class ChainLink:
    """Operand produced ``dh`` cycles behind ``chain``'s head issue."""

    __slots__ = ("chain", "dh")

    def __init__(self, chain: Chain, dh: int) -> None:
        self.chain = chain
        self.dh = dh

    def delay(self, now: int) -> int:
        return self.chain.member_delay(self.dh, now)

    def __repr__(self) -> str:
        return f"ChainLink(chain={self.chain.chain_id}, dh={self.dh})"


class CountdownLink:
    """Operand known (or predicted) to arrive at an absolute cycle."""

    __slots__ = ("ready_at",)

    def __init__(self, ready_at: int) -> None:
        self.ready_at = ready_at

    def delay(self, now: int) -> int:
        return max(0, self.ready_at - now)

    def __repr__(self) -> str:
        return f"CountdownLink(ready_at={self.ready_at})"


def combined_delay(links, now: int) -> int:
    """Entry delay value: the max over its links (0 when unconstrained)."""
    worst = 0
    for link in links:
        value = link.delay(now)
        if value > worst:
            worst = value
    return worst

