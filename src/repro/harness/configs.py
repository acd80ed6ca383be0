"""The IQ designs and the named processor configurations built from them.

These correspond to the configurations of the paper's figures:

* ``ideal(size)``                 — monolithic single-cycle IQ (the top line)
* ``segmented(size, chains, v)``  — segmented IQ; variant ``v`` is one of
  ``base`` (no predictors), ``hmp``, ``lrp``, or ``comb`` (both), matching
  the four bars per group in Figure 2
* ``prescheduled(lines)``         — Michaud-Seznec prescheduler
* ``distance(lines)``             — Canal-González distance scheme
* ``fifo(size)``                  — Palacharla dependence FIFOs (extension)
* ``delay_tracking(size)``        — Diavastos-Carlson load-delay tracking

:data:`DESIGNS` is the closed set of designs; every reader of the kind
names (``IQParams.validate``, ``build_iq``, the CLI's ``--iq``, the
validation campaign and the test suites) reads it.
"""

from __future__ import annotations

from functools import partial
from importlib import import_module
from typing import Callable, NamedTuple, Optional

from repro.common.params import IQParams, ProcessorParams

#: Figure 2 variant names, in the paper's bar order.
VARIANTS = ("base", "hmp", "lrp", "comb")


def ideal(size: int) -> ProcessorParams:
    return ProcessorParams().replace(iq=IQParams(kind="ideal", size=size))


def segmented(size: int, max_chains: Optional[int] = 128,
              variant: str = "comb", *, segment_size: int = 32,
              pushdown: bool = True, bypass: bool = True) -> ProcessorParams:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return ProcessorParams().replace(iq=IQParams(
        kind="segmented", size=size, segment_size=segment_size,
        max_chains=max_chains,
        use_hit_miss_predictor=variant in ("hmp", "comb"),
        use_left_right_predictor=variant in ("lrp", "comb"),
        enable_pushdown=pushdown, enable_bypass=bypass))


def prescheduled(lines: int) -> ProcessorParams:
    """Michaud-Seznec prescheduler with ``lines`` array lines.

    The paper's four data points use 8, 24, 56, and 120 lines of 12
    instructions plus a 32-entry issue buffer (128/320/704/1472 total
    slots).
    """
    return ProcessorParams().replace(iq=IQParams(
        kind="prescheduled", size=32 + lines * 12,
        presched_issue_buffer=32, presched_line_width=12))


def distance(lines: int, *, issue_buffer: int = 32,
             line_width: int = 12) -> ProcessorParams:
    """Canal-Gonzalez distance scheme with ``lines`` array lines."""
    return ProcessorParams().replace(iq=IQParams(
        kind="distance", size=issue_buffer + lines * line_width,
        presched_issue_buffer=issue_buffer, presched_line_width=line_width))


def delay_tracking(size: int, *,
                   predicted_load_latency: int = 4) -> ProcessorParams:
    """Diavastos-Carlson load-delay-tracking IQ of ``size`` entries."""
    return ProcessorParams().replace(iq=IQParams(
        kind="delay_tracking", size=size,
        dtrack_predicted_load_latency=predicted_load_latency))


def fifo(size: int, depth: int = 32) -> ProcessorParams:
    return ProcessorParams().replace(
        iq=IQParams(kind="fifo", size=size, segment_size=depth))


def chain_label(max_chains: Optional[int]) -> str:
    return "unlimited" if max_chains is None else f"{max_chains} chains"


class Design(NamedTuple):
    """One IQ design.  Its class is named by import path, so a design's
    module loads only when a queue of that kind is built; every class
    takes ``(iq_params, issue_width, stats)``."""

    cls: str
    #: Small, edge-case-heavy configuration for the differential-oracle
    #: fuzzing campaign (tiny structures hit full-queue and recovery
    #: paths after tens of instructions).
    validation_config: Callable[[], ProcessorParams]
    #: Workload-scale configuration for the conformance suite.
    conformance_config: Callable[[], ProcessorParams]

    def iq_class(self) -> type:
        module, _, name = self.cls.rpartition(".")
        return getattr(import_module(module), name)


#: Every ``IQParams.kind``, in the order the CLI and the validation
#: campaign list them.
DESIGNS = {
    "ideal": Design("repro.core.conventional.ConventionalIQ",
                    partial(ideal, 64), partial(ideal, 128)),
    "segmented": Design("repro.core.segmented.SegmentedIQ",
                        partial(segmented, 64, 16, "comb", segment_size=16),
                        partial(segmented, 256, 64, "comb")),
    "prescheduled": Design("repro.core.prescheduler.PreschedulingIQ",
                           partial(prescheduled, 4),
                           partial(prescheduled, 24)),
    "distance": Design("repro.core.distance.DistanceIQ",
                       partial(distance, 4), partial(distance, 24)),
    "fifo": Design("repro.core.fifo_iq.DependenceFIFOQueue",
                   partial(fifo, 64, depth=8), partial(fifo, 64)),
    "delay_tracking": Design("repro.core.delay_tracking.DelayTrackingIQ",
                             partial(delay_tracking, 64),
                             partial(delay_tracking, 128)),
}
