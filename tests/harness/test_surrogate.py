"""Analytical surrogate: accuracy contract and pruning soundness.

Three things are pinned here (see docs/models.md):

* the functional profile and the uncalibrated queuing model are sane
  (bounds ordered, bands bracket the point estimate),
* after anchor calibration the mean relative IPC error over a
  representative grid stays under :data:`SURROGATE_ERROR_BOUND` — the
  same score ``python -m repro surrogate`` enforces in CI,
* pruning is *sound*: a pruned sweep reports the same per-workload
  winner as the full sweep, and the winner is always simulated, never a
  surrogate fill-in.
"""

import pytest

from repro import api
from repro.fabric import ExecutionConfig
from repro.harness import configs
from repro.harness.surrogate import (SURROGATE_ERROR_BOUND,
                                     SurrogatePrediction, Surrogate,
                                     collect_profile, default_grid,
                                     predict_ipc, prune_and_run,
                                     surrogate_result, validation_report)
from repro.harness.sweep import Sweep

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


# A grid with a clearly dominated kind: shallow dependence FIFOs cannot
# keep up with a monolithic IQ on compute-bound workloads, so their
# non-anchor cells fall outside the Pareto band and exercise actual
# pruning.  Sizes step by fractions of an octave from the anchors so the
# calibrated uncertainty stays tight enough to rule the cells out.
PRUNE_CONFIGS = [("ideal-32", configs.ideal(32)),
                 ("ideal-64", configs.ideal(64)),
                 ("fifo-16", configs.fifo(16, depth=4)),
                 ("fifo-24", configs.fifo(24, depth=4)),
                 ("fifo-32", configs.fifo(32, depth=4))]


def _sweep(workloads, *, surrogate):
    sweep = Sweep(workloads, max_instructions=BUDGET)
    for label, params in PRUNE_CONFIGS:
        sweep.add_config(label, params)
    return sweep.run(surrogate=surrogate)


def test_pruned_sweep_preserves_winners():
    workloads = ["twolf", "swim"]
    full = _sweep(workloads, surrogate=False)
    pruned = _sweep(workloads, surrogate=True)
    assert pruned.surrogate_cells, "grid with a dominated kind must prune"
    for workload in workloads:
        winner = full.best_config(workload)
        assert pruned.best_config(workload) == winner
        # The winner is real: simulated, never a surrogate fill-in.
        assert (workload, winner) not in pruned.surrogate_cells
        assert "surrogate.predicted" not in \
            pruned.results[workload][winner].stats
        # Simulated cells agree exactly with the full sweep.
        for label, _ in PRUNE_CONFIGS:
            if (workload, label) not in pruned.surrogate_cells:
                assert (pruned.results[workload][label].ipc
                        == full.results[workload][label].ipc)


def test_prune_outcome_bookkeeping():
    cells = [("twolf", label, params) for label, params in PRUNE_CONFIGS]
    outcome = prune_and_run(cells, max_instructions=BUDGET)
    covered = set(outcome.simulated) | set(outcome.pruned)
    assert covered == {("twolf", label) for label, _ in PRUNE_CONFIGS}
    assert set(outcome.anchors) <= set(outcome.simulated)
    # One anchor per represented kind.
    assert len(outcome.anchors) == 2
    for cell in outcome.pruned:
        stats = outcome.results[cell].stats
        assert stats["surrogate.predicted"] == 1.0
        assert stats["surrogate.ipc_low"] <= stats["surrogate.ipc_high"]


def test_cached_cells_anchor_without_simulation(tmp_path, monkeypatch):
    """Phase 0: a warm cache calibrates the surrogate for free.

    The second pruning pass over the same grid + cache must simulate
    nothing at all — cached cells are harvested as results *and* as
    calibration anchors — yet agree exactly with the first pass.
    """
    from repro.harness import surrogate as surrogate_mod
    from repro.harness.cache import ResultCache

    cache = ResultCache(tmp_path)
    cells = [("twolf", label, params) for label, params in PRUNE_CONFIGS]
    first = prune_and_run(cells, max_instructions=BUDGET,
                          execution=ExecutionConfig(cache=cache))
    assert first.anchors, "cold pass must simulate anchors"

    batches = []
    real_run_grid = surrogate_mod.run_grid

    def counting(cells_arg, *args, **kwargs):
        batches.append(list(cells_arg))
        return real_run_grid(cells_arg, *args, **kwargs)

    monkeypatch.setattr(surrogate_mod, "run_grid", counting)
    second = prune_and_run(cells, max_instructions=BUDGET,
                          execution=ExecutionConfig(cache=cache))
    assert all(not batch for batch in batches), batches
    assert not second.anchors          # nothing left to anchor-simulate
    # Calibration really happened (phase 0), not just a lucky prune.
    assert second.surrogate.predict(
        "twolf", PRUNE_CONFIGS[0][1]).calibrated
    for cell in first.simulated:
        assert second.results[cell].ipc == first.results[cell].ipc
    assert set(second.results) == {("twolf", label)
                                   for label, _ in PRUNE_CONFIGS}


def test_unset_jobs_prunes_serially(monkeypatch):
    """``jobs=None`` means serial for every grid, the pruning pass
    included: no pool starts even where the process may use many CPUs."""
    from repro.fabric import executor as executor_module

    def no_pool(*args, **kwargs):
        raise AssertionError("started a process pool")

    monkeypatch.setattr(executor_module, "default_jobs", lambda: 4)
    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_pool)
    cells = [("twolf", label, params) for label, params in PRUNE_CONFIGS]
    outcome = prune_and_run(cells, max_instructions=BUDGET,
                            execution=ExecutionConfig())
    assert set(outcome.results) == {("twolf", label)
                                    for label, _ in PRUNE_CONFIGS}


def test_surrogate_result_marking():
    prediction = SurrogatePrediction(
        ipc=2.0, bounds={"width": 8.0}, binding="width", uncertainty=0.25)
    result = surrogate_result("gcc", "ideal-32", prediction, 1_000)
    assert result.ipc == 2.0
    assert result.cycles == 500
    assert result.stats["surrogate.predicted"] == 1.0
    assert result.stats["surrogate.ipc_low"] == pytest.approx(1.5)
    assert result.stats["surrogate.ipc_high"] == pytest.approx(2.5)
