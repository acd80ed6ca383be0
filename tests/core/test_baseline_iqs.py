"""Tests for the prescheduling and FIFO baseline IQ designs."""

import pytest

from repro.common import IQParams, ProcessorParams
from repro.harness import configs
from repro.isa import F, ProgramBuilder, R, execute
from repro.pipeline import Processor

from tests.conftest import daxpy_program, dependent_chain_program


def run_with(program, iq, max_cycles=1_000_000, max_instructions=None):
    params = ProcessorParams().replace(iq=iq)
    proc = Processor(params, execute(program,
                                     max_instructions=max_instructions))
    proc.warm_code(program)
    proc.run(max_cycles=max_cycles)
    return proc


class TestPreschedulingIQ:
    def test_completes_and_commits_everything(self):
        program = daxpy_program(n=64)
        proc = run_with(program, configs.prescheduled(8).iq)
        expected = sum(1 for _ in execute(program))
        assert proc.done
        assert proc.committed == expected

    def test_array_geometry(self):
        proc = run_with(daxpy_program(n=16), configs.prescheduled(24).iq)
        assert proc.iq.num_lines == 24
        assert proc.iq.line_width == 12
        assert proc.iq.buffer_capacity == 32

    def test_serial_chain_completes(self):
        proc = run_with(dependent_chain_program(150),
                        configs.prescheduled(8).iq)
        assert proc.done

    def test_occupancy_bounded(self):
        proc = run_with(daxpy_program(n=512), configs.prescheduled(8).iq)
        assert proc.stats.get("iq.occupancy") <= 128

    def test_latency_mispredictions_absorbed_by_buffer(self):
        # A kernel whose loads miss: prescheduled rows drain into the
        # buffer before data arrives, so the array must stall sometimes.
        program = daxpy_program(n=4096)
        proc = run_with(program, configs.prescheduled(24).iq,
                        max_instructions=20_000)
        assert proc.done
        assert proc.stats.get("presched.array_stalls") > 0

    def test_insensitive_to_array_size_on_miss_bound_code(self):
        # Paper 6.3: growing the array barely helps most benchmarks.
        program = daxpy_program(n=4096)
        small = run_with(program, configs.prescheduled(8).iq,
                         max_instructions=20_000)
        large = run_with(program, configs.prescheduled(120).iq,
                         max_instructions=20_000)
        assert large.cycle > small.cycle * 0.8


class TestDependenceFIFOQueue:
    def fifo_params(self, size=128, depth=8):
        return IQParams(kind="fifo", size=size, segment_size=depth)

    def test_completes_and_commits_everything(self):
        program = daxpy_program(n=64)
        proc = run_with(program, self.fifo_params())
        expected = sum(1 for _ in execute(program))
        assert proc.done
        assert proc.committed == expected

    def test_dependent_chain_shares_one_fifo(self):
        proc = run_with(dependent_chain_program(100), self.fifo_params())
        assert proc.done
        assert proc.stats.get("fifo.steered_behind_producer") > 50

    def test_independent_ops_spread_across_fifos(self):
        b = ProgramBuilder("indep")
        for i in range(64):
            b.li(R(1 + i % 20), i)
        b.halt()
        proc = run_with(b.build(), self.fifo_params())
        assert proc.done
        assert proc.stats.get("fifo.placed_in_empty_fifo") > 10

    def test_fifo_count_geometry(self):
        proc = run_with(daxpy_program(n=16), self.fifo_params(size=64, depth=8))
        assert proc.iq.num_fifos == 8
        assert proc.iq.fifo_depth == 8

    def test_slower_than_ideal_on_memory_bound_code(self):
        # FIFO heads block behind stalled loads: artificial dependences.
        program = daxpy_program(n=4096)
        fifo = run_with(program, self.fifo_params(size=512, depth=32),
                        max_instructions=20_000)
        ideal = run_with(program, configs.ideal(512).iq,
                         max_instructions=20_000)
        assert fifo.cycle > ideal.cycle
