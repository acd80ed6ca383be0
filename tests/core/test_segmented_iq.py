"""Integration tests for the segmented IQ inside the full pipeline."""

import pytest

from repro.harness import configs
from repro.isa import F, ProgramBuilder, R, execute, run_functional
from repro.pipeline import Processor

from tests.conftest import daxpy_program, dependent_chain_program


def run_segmented(program, *, size=128, segment_size=32, max_chains=None,
                  variant="base", pushdown=True, bypass=True,
                  max_instructions=None, max_cycles=1_000_000):
    params = configs.segmented(size, max_chains, variant,
                               segment_size=segment_size, pushdown=pushdown,
                               bypass=bypass)
    proc = Processor(params, execute(program,
                                     max_instructions=max_instructions))
    proc.warm_code(program)
    proc.run(max_cycles=max_cycles)
    return proc


class TestBasicCorrectness:
    def test_all_instructions_commit(self):
        program = daxpy_program(n=64)
        proc = run_segmented(program)
        expected = sum(1 for _ in execute(program))
        assert proc.done
        assert proc.committed == expected

    def test_functional_results_unaffected(self):
        program = daxpy_program(n=32)
        state = run_functional(program)
        proc = run_segmented(program)
        assert proc.done
        y = program.segment("y")
        assert state.memory[y.base // 8] == 5.0

    def test_serial_chain_completes(self):
        proc = run_segmented(dependent_chain_program(length=200))
        assert proc.done

    def test_single_segment_degenerates_to_conventional(self):
        # Paper 6.3: at 32 entries the segmented IQ is one segment and is
        # equivalent to the conventional IQ.
        program = daxpy_program(n=256)
        seg = run_segmented(program, size=32, segment_size=32)
        params = configs.ideal(32)
        # Remove the extra dispatch stage to make the comparison exact.
        params = params.replace(extra_dispatch_cycle_for_complex_iq=False)
        proc = Processor(params, execute(program))
        proc.warm_code(program)
        proc.run(max_cycles=1_000_000)
        # Within the extra dispatch cycle's reach of each other.
        assert abs(seg.cycle - proc.cycle) <= proc.cycle * 0.1


class TestChainBehaviour:
    def test_every_load_starts_a_chain_in_base_config(self):
        program = daxpy_program(n=64)
        proc = run_segmented(program)
        loads = proc.stats.get("lsq.loads")
        assert proc.stats.get("iq.chain_heads") >= loads

    def test_chains_respect_limit(self):
        program = daxpy_program(n=256)
        proc = run_segmented(program, max_chains=8)
        assert proc.iq.chains.peak_in_use <= 8

    def test_chain_starvation_stalls_dispatch(self):
        program = daxpy_program(n=256)
        starved = run_segmented(program, max_chains=1)
        plenty = run_segmented(program, max_chains=None)
        assert starved.stats.get("chains.alloc_failures") > 0
        assert starved.cycle >= plenty.cycle

    def test_chains_freed_by_end_of_run(self):
        proc = run_segmented(daxpy_program(n=64))
        assert proc.iq.chains.active_count == 0

    def test_hmp_reduces_chain_creation_on_hitting_loads(self):
        # A small, L1-resident working set re-traversed many times: loads
        # hit, the HMP learns, chains stop being created.
        b = ProgramBuilder("hot")
        data = b.alloc("d", 64, init=[1.0] * 64)
        i, limit, addr = R(1), R(2), R(3)
        b.li(limit, 64 * 40)
        b.li(i, 0)
        b.label("loop")
        b.andi(addr, i, 63)
        b.slli(addr, addr, 3)
        b.fld(F(0), addr, base=data)
        b.fadd(F(1), F(1), F(0))
        b.addi(i, i, 1)
        b.blt(i, limit, "loop")
        b.halt()
        program = b.build()
        base = run_segmented(program)
        with_hmp = run_segmented(program, variant="hmp")
        assert (with_hmp.stats.get("iq.chain_heads")
                < 0.5 * base.stats.get("iq.chain_heads"))
        assert with_hmp.iq.hmp.hit_prediction_accuracy > 0.9

    def test_lrp_restricts_to_one_chain(self):
        # Two load-fed operands meeting at an fadd: base config makes the
        # fadd a chain head; with LRP it follows a single chain instead.
        b = ProgramBuilder("two")
        x = b.alloc("x", 512, init=[1.0] * 512)
        y = b.alloc("y", 512, init=[2.0] * 512)
        i, limit, addr = R(1), R(2), R(3)
        b.li(limit, 512)
        b.li(i, 0)
        b.label("loop")
        b.slli(addr, i, 3)
        b.fld(F(0), addr, base=x)
        b.fld(F(1), addr, base=y)
        b.fadd(F(2), F(0), F(1))
        b.fst(F(2), addr, base=x)
        b.addi(i, i, 1)
        b.blt(i, limit, "loop")
        b.halt()
        program = b.build()
        base = run_segmented(program)
        with_lrp = run_segmented(program, variant="lrp")
        assert base.stats.get("iq.two_chain_instructions") > 100
        assert (with_lrp.stats.get("iq.chain_heads")
                < base.stats.get("iq.chain_heads"))
        assert with_lrp.stats.get("lrp.predictions") > 100


class TestEnhancements:
    def test_bypass_skips_empty_segments(self):
        proc = run_segmented(daxpy_program(n=64), size=512, bypass=True)
        assert proc.stats.get("iq.bypass_dispatches") > 0

    def test_bypass_improves_short_program_latency(self):
        program = dependent_chain_program(length=50)
        with_bypass = run_segmented(program, size=512, bypass=True)
        without = run_segmented(program, size=512, bypass=False)
        assert with_bypass.cycle < without.cycle

    def test_pushdown_counts_when_enabled(self):
        program = daxpy_program(n=2048)
        with_push = run_segmented(program, size=256, pushdown=True)
        without = run_segmented(program, size=256, pushdown=False)
        assert with_push.stats.get("iq.pushdowns") > 0
        assert without.stats.get("iq.pushdowns") == 0

    def test_occupancy_never_exceeds_capacity(self):
        proc = run_segmented(daxpy_program(n=1024), size=128)
        assert proc.stats.get("iq.occupancy") <= 128
        for segment in proc.iq.segments:
            assert segment.occupancy <= segment.capacity

    def test_thresholds_follow_uniform_increments(self):
        proc = run_segmented(daxpy_program(n=16), size=128)
        thresholds = [segment.promote_threshold
                      for segment in proc.iq.segments]
        assert thresholds == [0, 2, 4, 6]


class TestScaling:
    def test_larger_segmented_queue_helps_memory_bound_code(self):
        program = daxpy_program(n=4096)
        small = run_segmented(program, size=32)
        large = run_segmented(program, size=512)
        assert large.cycle < small.cycle * 0.8

    def test_segmented_within_ideal_envelope(self):
        # The segmented IQ can never beat the ideal single-cycle IQ of the
        # same size by construction (extra pipeline stages, restricted
        # issue window).
        program = daxpy_program(n=2048)
        seg = run_segmented(program, size=256)
        params = configs.ideal(256)
        ideal = Processor(params, execute(program))
        ideal.warm_code(program)
        ideal.run(max_cycles=1_000_000)
        assert seg.cycle >= ideal.cycle
