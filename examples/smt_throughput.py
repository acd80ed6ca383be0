#!/usr/bin/env python3
"""Scenario: SMT throughput with a shared segmented IQ (paper section 7).

"By scheduling across multiple threads, an SMT processor may obtain even
larger benefits out of increased IQ sizes... the dynamic inter-chain
scheduling of our segmented IQ should allow chains from independent
threads to exploit thread-level parallelism effectively."

Co-schedules pairs of benchmark analogs on one core and compares the SMT
throughput against running the two programs back to back, for both the
segmented IQ and the ideal IQ.  If the segmented design's SMT speedups
track the ideal's, the section-7 hypothesis holds.
"""

from repro import WORKLOADS, configs, execute
from repro.pipeline import Processor

PAIRS = [("swim", "twolf"), ("equake", "vortex"), ("mgrid", "gcc")]
BUDGET = 10_000


def run(names, params):
    programs = [WORKLOADS[name].build(1) for name in names]
    streams = [execute(program, max_instructions=BUDGET)
               for program in programs]
    processor = Processor(params, streams)
    for thread, (name, program) in enumerate(zip(names, programs)):
        processor.warm_code(program, thread)
        if WORKLOADS[name].warm_data:
            processor.warm_data(program, thread)
    processor.run(max_cycles=4_000_000)
    return processor


def main() -> None:
    designs = [("segmented-512/128", configs.segmented(512, 128, "comb")),
               ("ideal-512", configs.ideal(512))]
    print(f"{'pair':<18} {'design':<18} {'thread IPCs':>13} "
          f"{'SMT IPC':>8} {'vs serial':>10}")
    for left, right in PAIRS:
        for design_name, params in designs:
            serial_cycles = sum(run([name], params).cycle
                                for name in (left, right))
            smt = run([left, right], params)
            speedup = serial_cycles / smt.cycle if smt.cycle else 0.0
            ipcs = f"{smt.thread_ipc(0):.2f}/{smt.thread_ipc(1):.2f}"
            print(f"{left + '+' + right:<18} {design_name:<18} "
                  f"{ipcs:>13} {smt.ipc:>8.2f} {speedup:>9.2f}x")
        print()


if __name__ == "__main__":
    main()
