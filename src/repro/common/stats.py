"""Lightweight statistics collection.

The simulator records counters (monotonic event counts), distributions
(running mean / min / max / peak tracking), and formula stats (derived at
report time).  A single :class:`StatGroup` is threaded through the whole
machine so every component contributes to one report.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "desc", "value")

    def __init__(self, name: str, desc: str = "") -> None:
        self.name = name
        self.desc = desc
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Distribution:
    """Tracks count, sum, min, max of observed samples (O(1) memory)."""

    __slots__ = ("name", "desc", "count", "total", "_minimum", "_maximum")

    def __init__(self, name: str, desc: str = "") -> None:
        self.name = name
        self.desc = desc
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self._minimum = float("inf")
        self._maximum = float("-inf")

    def sample(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self._minimum:
            self._minimum = value
        if value > self._maximum:
            self._maximum = value

    def sample_n(self, value: float, repeats: int) -> None:
        """Record ``value`` as ``repeats`` identical samples.

        Bit-identical to calling :meth:`sample` that many times for the
        integer-valued samples the simulator records (``value * repeats``
        is exact, and min/max only need one update).  The event-driven
        skip path uses this to replay the per-cycle samples of a
        quiescent stretch in O(1).
        """
        if repeats <= 0:
            return
        self.count += repeats
        self.total += value * repeats
        if value < self._minimum:
            self._minimum = value
        if value > self._maximum:
            self._maximum = value

    @property
    def minimum(self) -> float:
        """Smallest observed sample; 0 when nothing was sampled."""
        return self._minimum if self.count else 0

    @property
    def maximum(self) -> float:
        """Largest observed sample; 0 when nothing was sampled."""
        return self._maximum if self.count else 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def peak(self) -> float:
        return self.maximum if self.count else 0.0

    def __repr__(self) -> str:
        return (f"Distribution({self.name}: n={self.count}, "
                f"mean={self.mean:.3f}, max={self.maximum})")


class StatGroup:
    """A named collection of counters and distributions.

    Components create their stats through a group so names are unique and a
    full report can be generated from one object.  Nested groups use
    dot-separated names by convention (``"iq.promotions"``).
    """

    def __init__(self, name: str = "sim") -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._distributions: Dict[str, Distribution] = {}

    def counter(self, name: str, desc: str = "") -> Counter:
        """Get or create a counter."""
        if name not in self._counters:
            self._counters[name] = Counter(name, desc)
        return self._counters[name]

    def distribution(self, name: str, desc: str = "") -> Distribution:
        """Get or create a distribution."""
        if name not in self._distributions:
            self._distributions[name] = Distribution(name, desc)
        return self._distributions[name]

    def get(self, name: str) -> float:
        """Look up a counter value or distribution mean by name."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._distributions:
            return self._distributions[name].mean
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return name in self._counters or name in self._distributions

    def counters(self) -> Iterator[Tuple[str, int]]:
        for name in sorted(self._counters):
            yield name, self._counters[name].value

    def distributions(self) -> Iterator[Distribution]:
        for name in sorted(self._distributions):
            yield self._distributions[name]

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for dist in self._distributions.values():
            dist.reset()

    def as_dict(self) -> Dict[str, float]:
        """Flatten into a plain dict (counters by value, dists by mean/peak)."""
        out: Dict[str, float] = {}
        for name, value in self.counters():
            out[name] = value
        for dist in self.distributions():
            out[f"{dist.name}.mean"] = dist.mean
            out[f"{dist.name}.peak"] = dist.peak
            out[f"{dist.name}.count"] = dist.count
        return out

    def report(self) -> str:
        """Human-readable multi-line report."""
        lines = [f"=== stats: {self.name} ==="]
        for name, value in self.counters():
            lines.append(f"{name:<40} {value}")
        for dist in self.distributions():
            lines.append(f"{dist.name:<40} mean={dist.mean:.4f} "
                         f"min={dist.minimum:.0f} "
                         f"max={dist.maximum:.0f} n={dist.count}")
        return "\n".join(lines)


def ratio(numerator: float, denominator: float) -> float:
    """Safe division: returns 0.0 when the denominator is zero."""
    return numerator / denominator if denominator else 0.0


# The pure-Python classes stay importable under Py* names; when the compiled
# kernel extension is present (and REPRO_KERNELS != "py" at import time) the
# public names rebind to its bit-identical C implementations.  StatGroup
# resolves Counter/Distribution through module globals, so it picks up the
# swap automatically.
PyCounter = Counter
PyDistribution = Distribution

from repro.common._ckload import compiled_kernels as _compiled_kernels

_ck = _compiled_kernels()
if _ck is not None:
    Counter = _ck.Counter
    Distribution = _ck.Distribution
del _ck, _compiled_kernels
