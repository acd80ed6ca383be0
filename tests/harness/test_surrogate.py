"""Analytical surrogate: profile sanity and the accuracy contract.

Four things are pinned here (see docs/models.md):

* the functional warming models the profile runs on (tag-only caches,
  the branch-predictor replica) behave like the structures they mirror,
* the functional profile and the uncalibrated queuing model are sane
  (bounds ordered, bands bracket the point estimate),
* calibration reproduces its anchor, and the band widens away from it,
* after anchor calibration the mean relative IPC error over a
  representative grid stays under :data:`SURROGATE_ERROR_BOUND` — the
  same score ``python -m repro surrogate`` enforces in CI.
"""

import pytest

from repro import api
from repro.common.params import ProcessorParams
from repro.fabric import ExecutionConfig
from repro.harness import configs
from repro.harness.surrogate import (SURROGATE_ERROR_BOUND, BranchWarmer,
                                     Surrogate, TagArray, collect_profile,
                                     default_grid, predict_ipc,
                                     validation_report)
from repro.isa import ProgramBuilder, R, execute

BUDGET = 6_000


def test_profile_sanity():
    profile = collect_profile("gcc", max_instructions=2_000)
    assert profile.workload == "gcc"
    assert profile.instructions > 0
    assert profile.critical_path >= 1
    assert profile.fu_demand and all(v > 0 for v in profile.fu_demand.values())
    assert profile.loads > 0 and profile.branches > 0
    assert profile.mispredicts <= profile.branches
    assert 0 <= profile.l2_hits + profile.mem_misses \
        <= profile.loads + profile.stores
    assert profile.miss_density >= 0.0


def test_uncalibrated_prediction_is_well_formed():
    profile = collect_profile("swim", max_instructions=2_000)
    for params in (configs.ideal(64), configs.segmented(128, 64, "comb"),
                   configs.fifo(64), configs.delay_tracking(128)):
        prediction = predict_ipc(profile, params)
        assert prediction.ipc > 0
        assert prediction.low < prediction.ipc < prediction.high
        assert not prediction.calibrated
        # The point estimate never beats any throughput bound.
        assert prediction.ipc <= min(prediction.bounds.values()) + 1e-9
        assert "width" in prediction.bounds
        assert prediction.binding


def test_calibration_reproduces_the_anchor():
    params = configs.ideal(32)
    simulated = api.run(params, "gcc", max_instructions=4_000)
    surrogate = Surrogate(max_instructions=4_000)
    surrogate.calibrate("gcc", params, simulated.ipc)
    prediction = surrogate.predict("gcc", params)
    assert prediction.calibrated
    # Cycles-domain calibration makes the anchor cell (nearly) exact.
    assert prediction.ipc == pytest.approx(simulated.ipc, rel=0.02)
    # Confidence tightens near the anchor, degrades away from it.
    far = surrogate.predict("gcc", configs.ideal(512))
    assert prediction.uncertainty < far.uncertainty <= 0.5


def test_validation_report_meets_the_error_bound():
    report = validation_report(["gcc", "swim"], default_grid()[:4],
                               max_instructions=BUDGET,
                               execution=ExecutionConfig(jobs=2))
    assert report["error_bound"] == SURROGATE_ERROR_BOUND
    assert report["within_bound"], (
        f"mean |error| {report['mean_abs_rel_error']:.1%} exceeds "
        f"{SURROGATE_ERROR_BOUND:.0%}")
    assert report["mean_abs_rel_error"] <= SURROGATE_ERROR_BOUND
    # Two workloads x four configs, one anchor per (workload, kind).
    assert len(report["cells"]) == 8
    assert report["scored_cells"] == 8 - sum(
        1 for row in report["cells"] if row["anchor"])
    for row in report["cells"]:
        assert {"workload", "config", "model", "anchor", "simulated_ipc",
                "predicted_ipc", "rel_error", "uncertainty",
                "binding"} <= set(row)


def _l1d_params():
    return ProcessorParams().memory.l1d


def _loop_stream(iterations=50):
    b = ProgramBuilder("loop")
    b.li(R(1), 0)
    b.li(R(2), iterations)
    b.label("loop")
    b.addi(R(1), R(1), 1)
    b.blt(R(1), R(2), "loop")
    b.halt()
    return list(execute(b.build()))


class TestTagArray:
    def test_miss_then_hit(self):
        tags = TagArray(_l1d_params())
        assert tags.access(0) is False
        assert tags.access(0) is True
        assert tags.access(8) is True      # same line

    def test_lru_eviction(self):
        params = _l1d_params()
        tags = TagArray(params)
        way_stride = params.num_sets * params.line_bytes
        addrs = [way * way_stride for way in range(params.assoc + 1)]
        for addr in addrs:                   # same set, distinct lines
            assert tags.access(addr) is False
        # The set overflowed by one: the oldest line was evicted ...
        assert tags.access(addrs[0]) is False
        # ... but the most recently used survivors are still resident.
        assert tags.access(addrs[-1]) is True

    def test_warm_line_preinstalls(self):
        tags = TagArray(_l1d_params())
        tags.warm_line(64)
        assert tags.access(64) is True


class TestBranchWarmer:
    def test_counts_branches_and_learns(self):
        warmer = BranchWarmer(configs.segmented(64, 16, "comb",
                                                segment_size=16))
        for dyn in _loop_stream():
            warmer.observe(dyn)
        assert warmer.branches == 50
        # A tight counted loop is nearly always predictable: after training,
        # mispredicts are a small fraction of branches.
        assert 0 < warmer.mispredicts < warmer.branches // 2
