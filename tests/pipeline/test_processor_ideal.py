"""End-to-end tests of the pipeline with the ideal (conventional) IQ."""

import pytest

from repro.harness import configs
from repro.isa import F, Opcode, ProgramBuilder, R, execute
from repro.pipeline import Processor

from tests.conftest import (daxpy_program, dependent_chain_program,
                            independent_ops_program, run_program)


class TestBasicExecution:
    def test_all_instructions_commit(self):
        program = daxpy_program(n=32)
        proc = run_program(program)
        dynamic_count = sum(1 for _ in execute(program))
        assert proc.committed == dynamic_count

    def test_commits_are_monotone_in_order(self):
        # The halt must be the last commit; committed == fetched.
        proc = run_program(daxpy_program(n=16))
        assert proc.done
        assert proc.stats.get("fetch.instructions") == proc.committed

    def test_ipc_positive_and_bounded(self):
        proc = run_program(daxpy_program(n=64))
        assert 0 < proc.ipc <= proc.params.issue_width


class TestDependenceTiming:
    def test_serial_chain_is_about_one_ipc(self):
        # A pure dependence chain of 1-cycle adds can never exceed IPC 1.
        proc = run_program(dependent_chain_program(length=300))
        # Front-end fill and halt drain add overhead; check a tight band.
        assert proc.cycle >= 300
        assert proc.ipc < 1.1

    def test_independent_ops_reach_high_ipc(self):
        # Warm the code footprint (the paper measures warm checkpoints);
        # otherwise straight-line code is one long cold I-miss sequence.
        from repro.isa import execute
        from repro.pipeline import Processor
        program = independent_ops_program(count=800)
        proc = Processor(configs.ideal(64), execute(program))
        proc.warm_code(program)
        proc.run(max_cycles=100_000)
        assert proc.ipc > 4.0

    def test_chain_slower_than_parallel(self):
        serial = run_program(dependent_chain_program(length=400))
        parallel = run_program(independent_ops_program(count=400))
        assert parallel.cycle < serial.cycle


class TestLatencies:
    def build_single_op(self, opcode_emit, extra_setup=None):
        b = ProgramBuilder("lat")
        if extra_setup:
            extra_setup(b)
        opcode_emit(b)
        b.halt()
        return b.build()

    def run_and_find(self, program, opcode):
        stream = list(execute(program))
        proc = Processor(configs.ideal(64), iter(stream))
        proc.run(max_cycles=100_000)
        for inst in stream:
            if inst.opcode is opcode:
                return inst
        raise AssertionError(f"no {opcode} in stream")

    @pytest.mark.parametrize("emit,opcode,latency", [
        (lambda b: b.add(R(1), R(0), R(0)), Opcode.ADD, 1),
        (lambda b: b.mul(R(1), R(0), R(0)), Opcode.MUL, 3),
        (lambda b: b.fadd(F(1), F(0), F(0)), Opcode.FADD, 2),
        (lambda b: b.fmul(F(1), F(0), F(0)), Opcode.FMUL, 4),
        (lambda b: b.fsqrt(F(1), F(0)), Opcode.FSQRT, 24),
    ])
    def test_execution_latency(self, emit, opcode, latency):
        program = self.build_single_op(emit)
        inst = self.run_and_find(program, opcode)
        assert inst.completed_cycle - inst.issued_cycle == latency

    def test_back_to_back_single_cycle_ops(self):
        # Dependent adds must issue on consecutive cycles.
        b = ProgramBuilder("b2b")
        b.li(R(1), 1)
        b.addi(R(2), R(1), 1)
        b.addi(R(3), R(2), 1)
        b.halt()
        stream = list(execute(b.build()))
        proc = Processor(configs.ideal(64), iter(stream))
        proc.run(max_cycles=100_000)
        adds = [i for i in stream if i.opcode is Opcode.ADDI]
        assert adds[1].issued_cycle == adds[0].issued_cycle + 1
        assert adds[2].issued_cycle == adds[1].issued_cycle + 1

    def test_nonpipelined_divide_blocks_unit(self):
        # More divides than units: with 8 div units at 20 cycles each,
        # 16 independent divides need two waves.
        b = ProgramBuilder("div")
        b.li(R(1), 100)
        b.li(R(2), 5)
        for i in range(16):
            b.div(R(3 + i % 16), R(1), R(2))
        b.halt()
        stream = list(execute(b.build()))
        proc = Processor(configs.ideal(64), iter(stream))
        proc.run(max_cycles=100_000)
        divides = [i for i in stream if i.opcode is Opcode.DIV]
        issue_cycles = sorted(i.issued_cycle for i in divides)
        # The 9th divide cannot issue until a unit frees: >= first + 20.
        assert issue_cycles[8] >= issue_cycles[0] + 20


class TestFrontEndPenalties:
    def test_front_end_depth_delays_first_commit(self):
        b = ProgramBuilder("tiny")
        b.li(R(1), 1)
        b.halt()
        proc = run_program(b.build())
        params = proc.params
        # First instruction cannot commit before traversing the front end.
        assert proc.cycle > params.dispatch_pipeline_depth

    def test_misprediction_penalty_visible(self):
        # A data-dependent unpredictable branch pattern should cost many
        # more cycles than a perfectly-predictable loop of the same length.
        def build(pattern_reg_update):
            b = ProgramBuilder("br")
            table = b.alloc("t", 256, init=[float(((i * 2654435761) >> 3) & 1)
                                            for i in range(256)])
            i, limit, addr, v = R(1), R(2), R(3), R(4)
            b.li(limit, 256)
            b.li(i, 0)
            b.label("loop")
            b.slli(addr, i, 3)
            b.ld(v, addr, base=table)
            b.beq(v, R(0), "skip")
            b.addi(R(5), R(5), 1)
            b.label("skip")
            b.addi(i, i, 1)
            b.blt(i, limit, "loop")
            b.halt()
            return b.build()

        hard = run_program(build(True))
        easy = run_program(daxpy_program(n=256))
        hard_mr = hard.stats.get("bpred.mispredicts")
        assert hard_mr > 20     # the hash pattern defeats the predictor
        assert hard.stats.get("fetch.branch_stall_cycles") > 100


class TestStoreLoadInteraction:
    def test_store_to_load_forwarding(self):
        # An older long-latency op keeps the store from committing, so the
        # load must be satisfied by forwarding inside the LSQ.
        b = ProgramBuilder("fwd")
        seg = b.alloc("a", 8)
        b.li(R(4), 9)
        b.cvtif(F(0), R(4))
        b.fsqrt(F(1), F(0))          # 24-cycle op stalls commit
        b.li(R(1), 42)
        b.st(R(1), R(0), base=seg)
        b.ld(R(2), R(0), base=seg)   # same address: must forward
        b.addi(R(3), R(2), 0)
        b.halt()
        stream = list(execute(b.build()))
        proc = Processor(configs.ideal(64), iter(stream))
        proc.run(max_cycles=100_000)
        assert proc.stats.get("lsq.forwards") == 1
        load = next(i for i in stream if i.is_load)
        assert load.mem_level == "forward"

    def test_functional_result_correct_under_timing(self):
        # The timing model must not corrupt architectural results: run the
        # same program functionally and through the pipeline.
        from repro.isa import run_functional
        program = daxpy_program(n=32)
        state = run_functional(program)
        proc = run_program(program)
        assert proc.done
        y = program.segment("y")
        # y[i] = 3*1.0 + 2.0 = 5.0
        assert state.memory[y.base // 8] == 5.0


class TestWindowScaling:
    def test_bigger_window_helps_memory_bound_code(self):
        # Stride-1 stream with footprint > L1: large windows overlap misses.
        program = daxpy_program(n=2048)
        small = run_program(program, configs.ideal(32))
        large = run_program(program, configs.ideal(256))
        assert large.cycle < small.cycle * 0.75

    def test_rob_occupancy_bounded_by_size(self):
        proc = run_program(daxpy_program(n=512))
        assert proc.rob.stat_occupancy.peak <= proc.params.rob_size
