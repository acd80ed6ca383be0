"""Ablations of the design choices the paper calls out (section 4).

Not a paper figure, but DESIGN.md's per-experiment index includes these
studies because sections 4.1-4.5 argue for each enhancement:

* instruction pushdown (4.1) — utilization under long-delay chains;
* segment bypassing (4.2) — pipeline-depth penalty on short programs;
* segment size — the cycle-time/IPC trade at fixed total capacity;
* deadlock recovery (4.5) — activity exists but is rare: the report
  gives each analog's recoveries per cycle.
"""

import pytest

from repro import api
from repro.harness import configs
from repro.harness.reporting import format_table
from repro.workloads import WORKLOADS

from benchmarks.conftest import BENCH_WORKLOADS, write_artifact

ABLATION_WORKLOADS = [w for w in ("swim", "applu", "twolf")
                      if w in BENCH_WORKLOADS] or BENCH_WORKLOADS[:1]


def run_seg(workload, **seg_kwargs):
    params = configs.segmented(512, 128, "comb", **seg_kwargs)
    return api.run(params, workload,
                        config_label=str(sorted(seg_kwargs.items())))


def test_ablation_report(benchmark):
    def render():
        rows = []
        for workload in ABLATION_WORKLOADS:
            base = run_seg(workload)
            no_push = run_seg(workload, pushdown=False)
            no_bypass = run_seg(workload, bypass=False)
            seg16 = run_seg(workload, segment_size=16)
            seg64 = run_seg(workload, segment_size=64)
            rows.append([workload, round(base.ipc, 3),
                         round(no_push.ipc, 3), round(no_bypass.ipc, 3),
                         round(seg16.ipc, 3), round(seg64.ipc, 3)])
        return format_table(
            ["benchmark", "full", "no pushdown", "no bypass",
             "16-entry segs", "64-entry segs"],
            rows, title="Ablations: segmented IQ design choices (512 "
                        "entries, 128 chains, comb)")

    def deadlocks():
        rows = []
        for workload in BENCH_WORKLOADS:
            result = run_seg(workload)
            recoveries = result.stats.get("iq.deadlock_recoveries", 0)
            rows.append([workload, recoveries, result.cycles,
                         f"{100 * recoveries / max(1, result.cycles):.3f}"])
        return format_table(
            ["benchmark", "recoveries", "cycles", "% of cycles"], rows,
            title="Deadlock recovery (section 4.5) per analog (512 "
                  "entries, 128 chains, comb)")

    report = benchmark.pedantic(lambda: render() + "\n\n" + deadlocks(),
                                rounds=1, iterations=1)
    write_artifact("ablations.txt", report)
    print("\n" + report)
    assert "Ablations" in report


def test_pushdown_helps_streaming(benchmark):
    workload = ABLATION_WORKLOADS[0]

    def delta():
        return (run_seg(workload).ipc,
                run_seg(workload, pushdown=False).ipc)

    with_push, without = benchmark.pedantic(delta, rounds=1, iterations=1)
    # Paper 4.1: pushdown prevents the top segment from stalling dispatch.
    assert with_push >= without * 0.95


def test_bypass_helps_low_occupancy_code(benchmark):
    workload = "twolf" if "twolf" in BENCH_WORKLOADS else ABLATION_WORKLOADS[0]

    def delta():
        return (run_seg(workload).ipc, run_seg(workload, bypass=False).ipc)

    with_bypass, without = benchmark.pedantic(delta, rounds=1, iterations=1)
    # Paper 4.2/6.1: bypass moves instructions past empty segments,
    # cutting the effective pipeline depth for low-occupancy benchmarks.
    assert with_bypass >= without * 0.98


def test_deadlock_recovery_is_rare(benchmark):
    def rates():
        out = []
        for workload in ABLATION_WORKLOADS:
            result = run_seg(workload)
            out.append(result.stats.get("iq.deadlock_recoveries", 0)
                       / max(1, result.cycles))
        return out

    values = benchmark.pedantic(rates, rounds=1, iterations=1)
    # Paper 4.5: deadlock occurs in ~0.05% of cycles.  The bound, 5% of
    # cycles, leaves two orders of magnitude of slack for the synthetic
    # analogs.
    assert max(values) < 0.05


def test_pushdown_vs_adaptive_thresholds(benchmark):
    """Section 4.1 head-to-head: the paper chose pushdown over adaptive
    thresholds for complexity reasons.  This ablation implements both and
    checks the choice was sound: pushdown captures most of the benefit."""
    def config(pushdown, adaptive):
        return configs.segmented(512, max_chains=128,
                                 pushdown=pushdown).with_iq(
            adaptive_thresholds=adaptive)

    def render():
        rows = []
        for workload in ABLATION_WORKLOADS:
            ipcs = {}
            for label, pushdown, adaptive in (
                    ("neither", False, False), ("pushdown", True, False),
                    ("adaptive", False, True), ("both", True, True)):
                result = api.run(config(pushdown, adaptive), workload,
                                      config_label=f"util-{label}")
                ipcs[label] = result.ipc
            rows.append([workload] + [round(ipcs[k], 3) for k in
                                      ("neither", "pushdown", "adaptive",
                                       "both")])
        return format_table(
            ["benchmark", "neither", "pushdown (paper)", "adaptive",
             "both"],
            rows, title="Section 4.1: pushdown vs adaptive thresholds")

    report = benchmark.pedantic(render, rounds=1, iterations=1)
    write_artifact("pushdown_vs_adaptive.txt", report)
    print("\n" + report)
    for row in report.splitlines()[3:]:
        cells = row.split()
        neither, pushdown = float(cells[1]), float(cells[2])
        adaptive, both = float(cells[3]), float(cells[4])
        # The paper's choice must dominate the declined alternative on at
        # least parity terms, and combining must not hurt.
        assert pushdown >= adaptive * 0.9
        assert both >= pushdown * 0.9


def test_memory_disambiguation_policies(benchmark):
    """Conservative (the paper) vs store sets vs oracle disambiguation.

    Section 5 notes the conservative LSQ could be augmented with store
    sets; this ablation quantifies what the conservative rule costs.
    """
    # ammp's read-modify-write force updates make disambiguation binding;
    # the streaming benchmarks barely notice it.
    memdep_workloads = [w for w in ("ammp", "equake")
                        if w in BENCH_WORKLOADS] + ABLATION_WORKLOADS[:1]

    def render():
        rows = []
        for workload in memdep_workloads:
            ipcs = []
            for policy in ("conservative", "store_sets", "oracle"):
                params = configs.segmented(512, 128, "comb").replace(
                    mem_dep_policy=policy)
                result = api.run(params, workload,
                                      config_label=f"memdep-{policy}")
                ipcs.append(round(result.ipc, 3))
            rows.append([workload] + ipcs)
        return format_table(
            ["benchmark", "conservative", "store sets", "oracle"],
            rows, title="Memory disambiguation policies (segmented "
                        "512/128, comb)")

    report = benchmark.pedantic(render, rounds=1, iterations=1)
    write_artifact("memdep_policies.txt", report)
    print("\n" + report)
    # The oracle can only help; the orderings must hold loosely.
    for row in report.splitlines()[3:]:
        cells = row.split()
        conservative, oracle = float(cells[1]), float(cells[3])
        assert oracle >= conservative * 0.98


def test_smaller_segments_do_not_collapse(benchmark):
    workload = ABLATION_WORKLOADS[0]

    def pair():
        return (run_seg(workload, segment_size=16).ipc,
                run_seg(workload).ipc)

    ipc16, ipc32 = benchmark.pedantic(pair, rounds=1, iterations=1)
    # 16-entry segments double the promotion pipeline depth; IPC drops
    # but the design keeps working (the cycle-time win is the point).
    assert ipc16 > 0.4 * ipc32
