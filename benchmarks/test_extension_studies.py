"""Studies of the section-7 extensions (our additions; see DESIGN.md §6b).

Not paper figures — these quantify the future-work directions the paper
sketches, using the same workloads and harness as the reproduction:

* SMT co-scheduling throughput (shared segmented IQ vs ideal IQ);
* clustered execution with chain vs balance steering;
* dynamic segment resizing's energy/performance trade.
"""

import pytest

from repro import api
from repro.harness import configs
from repro.harness.energy import EnergyModel, energy_per_instruction
from repro.harness.reporting import format_table
from repro.isa import execute
from repro.pipeline import Processor
from repro.workloads import WORKLOADS

from benchmarks.conftest import BENCH_WORKLOADS, BUDGET_FACTOR, write_artifact

SMT_PAIRS = [("swim", "twolf"), ("equake", "vortex")]


def _budget(name):
    return max(2_000, int(WORKLOADS[name].default_instructions
                          * BUDGET_FACTOR * 0.6))


def run_smt(names, params):
    programs = [WORKLOADS[name].build(1) for name in names]
    streams = [execute(program, max_instructions=_budget(name))
               for name, program in zip(names, programs)]
    processor = Processor(params, streams)
    for thread, (name, program) in enumerate(zip(names, programs)):
        processor.warm_code(program, thread)
        if WORKLOADS[name].warm_data:
            processor.warm_data(program, thread)
    processor.run(max_cycles=5_000_000)
    return processor


def smt_pairs():
    return [(a, b) for a, b in SMT_PAIRS
            if a in BENCH_WORKLOADS and b in BENCH_WORKLOADS] or \
        [(BENCH_WORKLOADS[0], BENCH_WORKLOADS[-1])]


def test_smt_throughput_study(benchmark):
    def render():
        rows = []
        for pair in smt_pairs():
            for design, params in (
                    ("segmented-512/128", configs.segmented(512, 128,
                                                            "comb")),
                    ("ideal-512", configs.ideal(512))):
                serial = sum(run_smt([name], params).cycle for name in pair)
                smt = run_smt(list(pair), params)
                rows.append(["+".join(pair), design,
                             round(smt.ipc, 3),
                             f"{serial / smt.cycle:.2f}x"])
        return format_table(
            ["pair", "design", "SMT IPC", "speedup vs serial"],
            rows, title="SMT co-scheduling (section 7 study)")

    report = benchmark.pedantic(render, rounds=1, iterations=1)
    write_artifact("smt_throughput.txt", report)
    print("\n" + report)
    # Co-scheduling must beat running the pair serially on every design.
    for line in report.splitlines()[3:]:
        speedup = float(line.split()[-1].rstrip("x"))
        assert speedup > 1.0


def test_clustering_study(benchmark):
    workloads = [w for w in ("mgrid", "swim") if w in BENCH_WORKLOADS] \
        or BENCH_WORKLOADS[:1]

    def render():
        rows = []
        for workload in workloads:
            budget = _budget(workload)
            base = api.run(configs.segmented(512, 128, "comb"), workload,
                                max_instructions=budget)
            row = [workload, round(base.ipc, 3)]
            for steering in ("balance", "chain"):
                params = configs.segmented(512, 128, "comb").replace(
                    clusters=2, cluster_steering=steering)
                result = api.run(params, workload,
                                      max_instructions=budget)
                row.extend([round(result.ipc, 3),
                            int(result.stats.get(
                                "clusters.cross_forwards", 0))])
            rows.append(row)
        return format_table(
            ["benchmark", "1-cluster IPC", "balance IPC", "balance xfwd",
             "chain IPC", "chain xfwd"],
            rows, title="Clustered execution: chain vs balance steering")

    report = benchmark.pedantic(render, rounds=1, iterations=1)
    write_artifact("clustering_study.txt", report)
    print("\n" + report)
    # Chain steering must cut cross-cluster forwarding dramatically.
    for row in report.splitlines()[3:]:
        cells = row.split()
        balance_xfwd, chain_xfwd = int(cells[3]), int(cells[5])
        assert chain_xfwd < balance_xfwd / 5 or balance_xfwd < 100


def test_resize_energy_study(benchmark):
    workloads = [w for w in ("gcc", "twolf", "swim")
                 if w in BENCH_WORKLOADS] or BENCH_WORKLOADS[:1]

    def render():
        model = EnergyModel()
        rows = []
        for workload in workloads:
            budget = _budget(workload)
            fixed_params = configs.segmented(512, max_chains=128)
            gated_params = fixed_params.with_iq(dynamic_resize=True,
                                                resize_interval=100)
            fixed = api.run(fixed_params, workload, max_instructions=budget)
            gated = api.run(gated_params, workload, max_instructions=budget)
            fixed_epi = energy_per_instruction(
                model.estimate(fixed.stats), fixed.instructions)
            gated_epi = energy_per_instruction(
                model.estimate(gated.stats), gated.instructions)
            rows.append([workload, round(fixed.ipc, 3), round(gated.ipc, 3),
                         round(fixed_epi, 2), round(gated_epi, 2)])
        return format_table(
            ["benchmark", "fixed IPC", "gated IPC", "fixed EPI",
             "gated EPI"],
            rows, title="Dynamic segment resizing: energy proxy per "
                        "instruction")

    report = benchmark.pedantic(render, rounds=1, iterations=1)
    write_artifact("resize_energy_study.txt", report)
    print("\n" + report)
    for row in report.splitlines()[3:]:
        cells = row.split()
        fixed_ipc, gated_ipc = float(cells[1]), float(cells[2])
        fixed_epi, gated_epi = float(cells[3]), float(cells[4])
        assert gated_ipc > 0.85 * fixed_ipc     # tiny performance cost
        assert gated_epi <= fixed_epi + 0.01    # never costs energy