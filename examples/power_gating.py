#!/usr/bin/env python3
"""Scenario: dynamic segment power gating (the paper's section 7).

"The segmented structure lends itself naturally to dynamic resizing by
gating clocks and/or power on a segment granularity."  This example runs
two contrasting workloads — mispredict-bound `gcc` (low queue demand) and
streaming `swim` (high demand) — with the occupancy-driven resize
controller, and reports the powered-segment-cycles saved versus the
performance given up.
"""

from repro import WORKLOADS, configs, execute, Processor


def run(benchmark: str, dynamic: bool):
    params = configs.segmented(512, max_chains=128)
    if dynamic:
        params = params.with_iq(dynamic_resize=True, resize_interval=100)
    spec = WORKLOADS[benchmark]
    program = spec.build(1)
    processor = Processor(params, execute(
        program, max_instructions=spec.default_instructions))
    processor.warm_code(program)
    if spec.warm_data:
        processor.warm_data(program)
    processor.run(max_cycles=3_000_000)
    return processor


def main() -> None:
    from repro.harness.energy import EnergyModel, energy_per_instruction

    model = EnergyModel()
    print(f"{'benchmark':<10} {'mode':<8} {'IPC':>6} {'powered seg-cycles':>19} "
          f"{'avg active':>11} {'EPI proxy':>10}")
    for benchmark in ("gcc", "twolf", "swim"):
        static = run(benchmark, dynamic=False)
        adaptive = run(benchmark, dynamic=True)
        static_power = static.iq.num_segments * static.cycle
        adaptive_power = adaptive.stats.get("iq.powered_segment_cycles")
        avg_active = adaptive.stats.get("iq.active_segments")
        static_epi = energy_per_instruction(
            model.estimate(static.stats.as_dict()), static.committed)
        adaptive_epi = energy_per_instruction(
            model.estimate(adaptive.stats.as_dict()), adaptive.committed)
        print(f"{benchmark:<10} {'static':<8} {static.ipc:>6.3f} "
              f"{static_power:>19.0f} {static.iq.num_segments:>11.1f} "
              f"{static_epi:>10.2f}")
        print(f"{'':<10} {'dynamic':<8} {adaptive.ipc:>6.3f} "
              f"{adaptive_power:>19.0f} {avg_active:>11.1f} "
              f"{adaptive_epi:>10.2f}")
        saved = 1 - adaptive_power / static_power if static_power else 0.0
        cost = 1 - adaptive.ipc / static.ipc if static.ipc else 0.0
        print(f"{'':<10} -> {100 * saved:.0f}% of queue segment-cycles "
              f"gated off for {100 * cost:+.1f}% IPC\n")


if __name__ == "__main__":
    main()
