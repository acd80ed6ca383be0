"""Simulation parameter dataclasses.

Defaults follow Table 1 of the paper (Raasch, Binkert & Reinhardt, ISCA 2002)
wherever the paper specifies a value.  Every knob the evaluation sweeps
(IQ size, segment size, chain count, predictor toggles) is a field here so
experiments are pure data.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class BranchPredictorParams:
    """21264-style hybrid local/global predictor (paper Table 1)."""

    global_history_bits: int = 13
    global_pht_entries: int = 8192
    local_history_regs: int = 2048
    local_history_bits: int = 11
    local_pht_entries: int = 2048
    choice_history_bits: int = 13
    choice_pht_entries: int = 8192
    btb_entries: int = 4096
    btb_assoc: int = 4

    def validate(self) -> None:
        for name in ("global_pht_entries", "local_pht_entries",
                     "choice_pht_entries", "btb_entries"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ConfigurationError(f"{name} must be a power of two, got {value}")
        if self.btb_entries % self.btb_assoc:
            raise ConfigurationError("btb_entries must be divisible by btb_assoc")
        if self.local_history_regs <= 0:
            raise ConfigurationError(
                f"local_history_regs must be positive, got {self.local_history_regs}")
        for name in ("global_history_bits", "local_history_bits",
                     "choice_history_bits"):
            value = getattr(self, name)
            if not 0 <= value <= 62:
                # Histories are kept in 64-bit table slots.
                raise ConfigurationError(f"{name} must be in [0, 62], got {value}")


@dataclass(frozen=True)
class CacheParams:
    """A single cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 1
    mshr_entries: int = 32

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    def validate(self, name: str = "cache") -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ConfigurationError(f"{name}: sizes must be positive")
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ConfigurationError(
                f"{name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})")
        sets = self.num_sets
        if sets & (sets - 1):
            raise ConfigurationError(f"{name}: set count {sets} not a power of two")
        if self.hit_latency < 1:
            raise ConfigurationError(f"{name}: hit latency must be >= 1")


@dataclass(frozen=True)
class MemoryParams:
    """Memory hierarchy parameters (paper Table 1)."""

    l1i: CacheParams = field(default_factory=lambda: CacheParams(
        size_bytes=64 * 1024, assoc=2, hit_latency=1))
    l1d: CacheParams = field(default_factory=lambda: CacheParams(
        size_bytes=64 * 1024, assoc=2, hit_latency=3))
    l2: CacheParams = field(default_factory=lambda: CacheParams(
        size_bytes=1024 * 1024, assoc=4, hit_latency=10))
    main_memory_latency: int = 100
    # Paper: 64 bytes/cycle L1<->L2, 8 bytes/cycle to main memory.
    l2_bandwidth_bytes: int = 64
    memory_bandwidth_bytes: int = 8

    def validate(self) -> None:
        self.l1i.validate("l1i")
        self.l1d.validate("l1d")
        self.l2.validate("l2")
        if self.main_memory_latency < 1:
            raise ConfigurationError("main_memory_latency must be >= 1")


@dataclass(frozen=True)
class IQParams:
    """Instruction queue configuration.

    ``kind`` selects the design, one of the keys of
    :data:`repro.harness.configs.DESIGNS` (docs/models.md).
    """

    kind: str = "segmented"
    size: int = 512
    # Segmented IQ knobs (paper sections 3-4).
    segment_size: int = 32
    max_chains: Optional[int] = 128       # None = unlimited chain wires
    use_hit_miss_predictor: bool = True
    use_left_right_predictor: bool = True
    enable_pushdown: bool = True          # section 4.1
    enable_bypass: bool = True            # section 4.2
    # The alternative the paper declined in section 4.1 ("Adaptive
    # thresholds could improve utilization, but would be complex to
    # implement"): periodically refit segment thresholds to the observed
    # delay distribution.  Implemented so the pushdown-vs-adaptive
    # trade-off can be measured (see benchmarks/test_ablations.py).
    adaptive_thresholds: bool = False
    threshold_update_interval: int = 100
    threshold_step: int = 2               # thresholds 2, 4, 6, ... (section 3.1)
    hmp_counter_bits: int = 4             # section 4.4
    hmp_confidence: int = 13              # predict hit only if counter > 13
    # Dynamic segment resizing (the paper's section-7 future work: gate
    # clocks/power at segment granularity).  When enabled, an occupancy-
    # driven controller shrinks the powered portion of the queue under low
    # demand and regrows it when dispatch stalls.
    dynamic_resize: bool = False
    resize_interval: int = 200        # cycles between controller decisions
    resize_low_watermark: float = 0.4  # shrink when occupancy/capacity below
    min_active_segments: int = 2
    # Prescheduler knobs (Michaud & Seznec, as configured in section 6.3).
    presched_issue_buffer: int = 32
    presched_line_width: int = 12
    # Delay-tracking knob (Diavastos & Carlson): assumed load latency for
    # the expected-availability table (EA calculation + L1 hit).
    dtrack_predicted_load_latency: int = 4

    @property
    def num_segments(self) -> int:
        return max(1, self.size // self.segment_size)

    def validate(self) -> None:
        # Imported here: the design table's module imports this one.
        from repro.harness.configs import DESIGNS
        if self.kind not in DESIGNS:
            raise ConfigurationError(f"unknown IQ kind {self.kind!r}")
        if self.size <= 0:
            raise ConfigurationError("IQ size must be positive")
        if self.kind == "segmented":
            if self.segment_size <= 0 or self.size % self.segment_size:
                raise ConfigurationError(
                    f"IQ size {self.size} must be a multiple of "
                    f"segment size {self.segment_size}")
            if self.max_chains is not None and self.max_chains <= 0:
                raise ConfigurationError("max_chains must be positive or None")
            if self.threshold_step < 1:
                raise ConfigurationError("threshold_step must be >= 1")
            if self.adaptive_thresholds and self.threshold_update_interval < 1:
                raise ConfigurationError(
                    "threshold_update_interval must be >= 1")
            if self.dynamic_resize:
                if self.resize_interval < 1:
                    raise ConfigurationError("resize_interval must be >= 1")
                if not 0.0 < self.resize_low_watermark < 1.0:
                    raise ConfigurationError(
                        "resize_low_watermark must be in (0, 1)")
                if not 1 <= self.min_active_segments <= self.num_segments:
                    raise ConfigurationError(
                        "min_active_segments out of range")
        if self.kind == "delay_tracking":
            if self.dtrack_predicted_load_latency < 1:
                raise ConfigurationError(
                    "dtrack_predicted_load_latency must be >= 1")
        if self.kind in ("prescheduled", "distance"):
            if self.presched_issue_buffer <= 0 or self.presched_line_width <= 0:
                raise ConfigurationError("prescheduler sizes must be positive")
            if self.size < self.presched_issue_buffer:
                raise ConfigurationError(
                    "prescheduled IQ size includes the issue buffer and must "
                    "be at least presched_issue_buffer")


@dataclass(frozen=True)
class ProcessorParams:
    """Whole-processor configuration; defaults mirror the paper's Table 1."""

    fetch_width: int = 8
    max_branches_per_fetch: int = 3
    dispatch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    # Front-end depth: 10 cycles fetch-to-decode, 5 cycles decode-to-dispatch.
    fetch_to_decode: int = 10
    decode_to_dispatch: int = 5
    # Paper: "we add an extra cycle to the dispatch stage for both the
    # segmented and prescheduling IQs."
    extra_dispatch_cycle_for_complex_iq: bool = True
    # 8 function units of each class.
    fu_counts: dict = field(default_factory=lambda: {
        "int_alu": 8, "int_mul": 8, "fp_add": 8, "fp_mul": 8, "mem_port": 8})
    iq: IQParams = field(default_factory=IQParams)
    rob_factor: int = 3                   # ROB = 3x IQ size (section 5)
    lsq_size: Optional[int] = None        # default: same as ROB
    # Memory disambiguation: "conservative" (the paper's rule: loads wait
    # for all earlier store addresses), "oracle" (perfect knowledge), or
    # "store_sets" (Chrysos-Emer prediction; see section 5's reference to
    # enforcing predicted memory dependences with store sets).
    mem_dep_policy: str = "conservative"
    # Horizontal clustering (the paper's section-7 future work: combine
    # vertical segmentation with 21264-style clusters).  Function units
    # split evenly across clusters; forwarding a value across clusters
    # costs an extra cycle.  Steering: "balance" (fewest in-flight),
    # "dependence" (follow the first producer), or "chain" (follow the
    # producing dependence chain; segmented IQ only, falls back to
    # dependence elsewhere).
    clusters: int = 1
    cluster_bypass_penalty: int = 1
    cluster_steering: str = "chain"
    memory: MemoryParams = field(default_factory=MemoryParams)
    branch: BranchPredictorParams = field(default_factory=BranchPredictorParams)
    # Simulation safety net: abort if no instruction commits for this long.
    watchdog_cycles: int = 50_000
    # Run the per-cycle pipeline invariant checks (repro.validation); off by
    # default so benchmark timings pay nothing for them.
    check_invariants: bool = False
    # Event-driven cycle skipping: Processor.run fast-forwards the clock
    # across provably quiescent stretches (docs/performance.md).  Results
    # are bit-identical either way; set False (CLI: --no-skip) to force
    # the plain one-step-per-cycle loop for debugging.
    event_driven: bool = True

    @property
    def rob_size(self) -> int:
        return self.rob_factor * self.iq.size

    @property
    def effective_lsq_size(self) -> int:
        return self.lsq_size if self.lsq_size is not None else self.rob_size

    @property
    def dispatch_pipeline_depth(self) -> int:
        depth = self.fetch_to_decode + self.decode_to_dispatch
        if (self.extra_dispatch_cycle_for_complex_iq
                and self.iq.kind in ("segmented", "prescheduled")):
            depth += 1
        return depth

    def validate(self) -> None:
        for name in ("fetch_width", "dispatch_width", "issue_width",
                     "commit_width", "fetch_to_decode", "decode_to_dispatch"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.rob_factor < 1:
            raise ConfigurationError("rob_factor must be >= 1")
        for unit, count in self.fu_counts.items():
            if count < 0:
                raise ConfigurationError(f"fu count for {unit} must be >= 0")
        if self.mem_dep_policy not in ("conservative", "oracle",
                                       "store_sets"):
            raise ConfigurationError(
                f"unknown mem_dep_policy {self.mem_dep_policy!r}")
        if self.clusters < 1:
            raise ConfigurationError("clusters must be >= 1")
        if self.cluster_steering not in ("balance", "dependence", "chain"):
            raise ConfigurationError(
                f"unknown cluster_steering {self.cluster_steering!r}")
        if self.clusters > 1:
            if self.cluster_bypass_penalty < 0:
                raise ConfigurationError(
                    "cluster_bypass_penalty must be >= 0")
            for unit, count in self.fu_counts.items():
                if count % self.clusters:
                    raise ConfigurationError(
                        f"fu count for {unit} ({count}) must divide evenly "
                        f"across {self.clusters} clusters")
        self.iq.validate()
        self.memory.validate()
        self.branch.validate()

    def replace(self, **changes) -> "ProcessorParams":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_iq(self, **changes) -> "ProcessorParams":
        """Return a copy with IQ fields replaced."""
        return dataclasses.replace(self, iq=dataclasses.replace(self.iq, **changes))
