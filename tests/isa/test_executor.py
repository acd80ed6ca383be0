"""Tests for the functional simulator."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.isa import F, ProgramBuilder, R, execute, run_functional


def build_and_run(build_fn, **kwargs):
    b = ProgramBuilder("t")
    build_fn(b)
    return run_functional(b.build(), **kwargs)


class TestIntegerOps:
    def test_arithmetic(self):
        def body(b):
            b.li(R(1), 6)
            b.li(R(2), 7)
            b.mul(R(3), R(1), R(2))
            b.sub(R(4), R(3), R(1))
            b.halt()
        state = build_and_run(body)
        assert state.regs[R(3)] == 42
        assert state.regs[R(4)] == 36

    def test_r0_is_hardwired_zero(self):
        def body(b):
            b.addi(R(0), R(0), 99)
            b.add(R(1), R(0), R(0))
            b.halt()
        state = build_and_run(body)
        assert state.regs[0] == 0
        assert state.regs[R(1)] == 0

    def test_logic_and_shifts(self):
        def body(b):
            b.li(R(1), 0b1100)
            b.li(R(2), 0b1010)
            b.and_(R(3), R(1), R(2))
            b.or_(R(4), R(1), R(2))
            b.xor(R(5), R(1), R(2))
            b.slli(R(6), R(1), 2)
            b.srli(R(7), R(1), 2)
            b.halt()
        state = build_and_run(body)
        assert state.regs[R(3)] == 0b1000
        assert state.regs[R(4)] == 0b1110
        assert state.regs[R(5)] == 0b0110
        assert state.regs[R(6)] == 0b110000
        assert state.regs[R(7)] == 0b11

    def test_shift_amounts_masked_to_6_bits(self):
        """Shift amounts wrap mod 64 (register and immediate forms), so a
        huge shift count cannot blow up memory."""
        def body(b):
            b.li(R(1), 1)
            b.li(R(2), 64)                 # 64 & 63 == 0
            b.li(R(3), 66)                 # 66 & 63 == 2
            b.sll(R(4), R(1), R(2))
            b.sll(R(5), R(1), R(3))
            b.slli(R(6), R(1), 64)
            b.slli(R(7), R(1), 67)         # 67 & 63 == 3
            b.li(R(8), 32)
            b.srl(R(9), R(8), R(2))        # shift by 0
            b.srli(R(10), R(8), 65)        # shift by 1
            b.halt()
        state = build_and_run(body)
        assert state.regs[R(4)] == 1
        assert state.regs[R(5)] == 4
        assert state.regs[R(6)] == 1
        assert state.regs[R(7)] == 8
        assert state.regs[R(9)] == 32
        assert state.regs[R(10)] == 16

    def test_slt_and_slti(self):
        def body(b):
            b.li(R(1), 5)
            b.li(R(2), 9)
            b.slt(R(3), R(1), R(2))
            b.slt(R(4), R(2), R(1))
            b.slti(R(5), R(1), 6)
            b.halt()
        state = build_and_run(body)
        assert state.regs[R(3)] == 1
        assert state.regs[R(4)] == 0
        assert state.regs[R(5)] == 1

    def test_division_truncates_toward_zero(self):
        def body(b):
            b.li(R(1), -7)
            b.li(R(2), 2)
            b.div(R(3), R(1), R(2))
            b.halt()
        assert build_and_run(body).regs[R(3)] == -3

    def test_division_by_zero_raises(self):
        def body(b):
            b.li(R(1), 1)
            b.div(R(2), R(1), R(0))
            b.halt()
        with pytest.raises(ExecutionError, match="division by zero"):
            build_and_run(body)


class TestFloatOps:
    def test_fp_pipeline(self):
        def body(b):
            b.li(R(1), 3)
            b.cvtif(F(0), R(1))
            b.fmul(F(1), F(0), F(0))     # 9.0
            b.fsqrt(F(2), F(1))          # 3.0
            b.fadd(F(3), F(2), F(0))     # 6.0
            b.fdiv(F(4), F(3), F(0))     # 2.0
            b.fneg(F(5), F(4))
            b.cvtfi(R(2), F(5))
            b.halt()
        state = build_and_run(body)
        assert state.regs[F(3)] == pytest.approx(6.0)
        assert state.regs[F(4)] == pytest.approx(2.0)
        assert state.regs[R(2)] == -2

    def test_fcmplt(self):
        def body(b):
            b.li(R(1), 1)
            b.li(R(2), 2)
            b.cvtif(F(0), R(1))
            b.cvtif(F(1), R(2))
            b.fcmplt(R(3), F(0), F(1))
            b.fcmplt(R(4), F(1), F(0))
            b.halt()
        state = build_and_run(body)
        assert state.regs[R(3)] == 1
        assert state.regs[R(4)] == 0

    def test_fsqrt_negative_raises(self):
        def body(b):
            b.li(R(1), -4)
            b.cvtif(F(0), R(1))
            b.fsqrt(F(1), F(0))
            b.halt()
        with pytest.raises(ExecutionError, match="fsqrt"):
            build_and_run(body)


class TestMemory:
    def test_store_then_load(self):
        def body(b):
            seg = b.alloc("a", 4)
            b.li(R(1), 8)                # element 1
            b.li(R(2), 123)
            b.st(R(2), R(1), base=seg)
            b.ld(R(3), R(1), base=seg)
            b.halt()
        state = build_and_run(body)
        assert state.regs[R(3)] == 123

    def test_initial_memory_visible(self):
        def body(b):
            seg = b.alloc("a", 2, init=[2.5, 4.5])
            b.fld(F(0), R(0), 8, base=seg)
            b.halt()
        assert build_and_run(body).regs[F(0)] == 4.5

    def test_unaligned_access_raises(self):
        def body(b):
            b.alloc("a", 2)
            b.li(R(1), 3)
            b.ld(R(2), R(1))
            b.halt()
        with pytest.raises(ExecutionError, match="unaligned"):
            build_and_run(body)

    def test_out_of_bounds_raises(self):
        def body(b):
            b.alloc("a", 2)
            b.li(R(1), 800)
            b.ld(R(2), R(1))
            b.halt()
        with pytest.raises(ExecutionError, match="outside memory"):
            build_and_run(body)


class TestControlFlow:
    def test_loop_runs_expected_iterations(self):
        def body(b):
            b.li(R(1), 0)
            b.li(R(2), 10)
            b.label("loop")
            b.addi(R(1), R(1), 1)
            b.blt(R(1), R(2), "loop")
            b.halt()
        state = build_and_run(body)
        assert state.regs[R(1)] == 10

    def test_jmp_is_unconditional(self):
        def body(b):
            b.jmp("end")
            b.li(R(1), 1)     # skipped
            b.label("end")
            b.halt()
        assert build_and_run(body).regs[R(1)] == 0

    def test_branch_variants(self):
        def body(b):
            b.li(R(1), 5)
            b.li(R(2), 5)
            b.beq(R(1), R(2), "eq_ok")
            b.halt()
            b.label("eq_ok")
            b.bne(R(1), R(0), "ne_ok")
            b.halt()
            b.label("ne_ok")
            b.bge(R(1), R(2), "ge_ok")
            b.halt()
            b.label("ge_ok")
            b.ble(R(1), R(2), "le_ok")
            b.halt()
            b.label("le_ok")
            b.bgt(R(1), R(0), "gt_ok")
            b.halt()
            b.label("gt_ok")
            b.li(R(3), 77)
            b.halt()
        assert build_and_run(body).regs[R(3)] == 77

    def test_max_instructions_truncates(self):
        def body(b):
            b.li(R(1), 0)
            b.label("loop")
            b.addi(R(1), R(1), 1)
            b.jmp("loop")
        b = ProgramBuilder("t")
        body(b)
        b.halt()
        state = run_functional(b.build(), max_instructions=101)
        assert state.instruction_count == 101
        assert not state.halted


class TestTypeStability:
    """Regression tests for the type-stable numeric representation
    (executor module docstring): int-ness/float-ness of every register
    and memory cell is deterministic, which the byte-stable program-image
    digests (tests/isa/test_program_image.py) depend on."""

    def test_r0_write_suppressed_even_for_float_results(self):
        def body(b):
            b.li(R(1), 3)
            b.cvtif(F(0), R(1))
            b.fadd(R(0), F(0), F(0))     # writes to r0: suppressed
            b.addi(R(0), R(1), 9)
            b.halt()
        state = build_and_run(body)
        assert state.regs[0] == 0
        assert type(state.regs[0]) is int

    def test_int_ops_write_int_fp_ops_write_float(self):
        def body(b):
            seg = b.alloc("a", 4, init=[2.5])
            b.li(R(1), 7)
            b.addi(R(2), R(1), 1)
            b.cvtif(F(0), R(1))
            b.cvtfi(R(3), F(0))
            b.fld(F(1), R(0), 0, base=seg)
            b.fst(F(1), R(0), 8, base=seg)
            b.halt()
        state = build_and_run(body)
        assert type(state.regs[R(2)]) is int
        assert type(state.regs[F(0)]) is float
        assert type(state.regs[R(3)]) is int
        word = seg_word = None
        for word_index, value in enumerate(state.memory):
            if value == 2.5:
                seg_word = word_index
                break
        assert seg_word is not None
        assert type(state.memory[seg_word]) is float
        assert type(state.memory[seg_word + 1]) is float  # the fst copy

    def test_snapshot_is_byte_stable_across_runs(self):
        def run_once():
            b = ProgramBuilder("t")
            seg = b.alloc("a", 4, init=[1.5, 2])
            b.li(R(1), 5)
            b.cvtif(F(0), R(1))
            b.fst(F(0), R(0), 16, base=seg)
            b.halt()
            return run_functional(b.build()).snapshot()
        first, second = run_once(), run_once()
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)


class TestDynamicStream:
    def test_stream_matches_program_order_and_annotations(self):
        b = ProgramBuilder("t")
        seg = b.alloc("a", 2, init=[7.0])
        b.li(R(1), 0)
        b.ld(R(2), R(1), base=seg)
        b.beq(R(2), R(0), "skip")    # not taken: mem holds 7
        b.addi(R(3), R(0), 1)
        b.label("skip")
        b.halt()
        stream = list(execute(b.build()))
        assert [dyn.seq for dyn in stream] == list(range(len(stream)))
        load = stream[1]
        assert load.is_load
        assert load.mem_addr == seg.base
        branch = stream[2]
        assert branch.is_branch
        assert not branch.taken
        assert branch.next_pc == 3
        assert stream[-1].static.is_halt

    def test_taken_branch_next_pc_is_target(self):
        b = ProgramBuilder("t")
        b.li(R(1), 1)
        b.bne(R(1), R(0), "end")
        b.nop()
        b.label("end")
        b.halt()
        stream = list(execute(b.build()))
        branch = stream[1]
        assert branch.taken
        assert branch.next_pc == 3
        assert len(stream) == 3      # nop skipped

    @given(st.integers(min_value=1, max_value=50))
    def test_counted_loop_dynamic_length(self, n):
        b = ProgramBuilder("t")
        b.li(R(1), 0)
        b.li(R(2), n)
        b.label("loop")
        b.addi(R(1), R(1), 1)
        b.blt(R(1), R(2), "loop")
        b.halt()
        stream = list(execute(b.build()))
        # 2 setup + 2*n loop body + 1 halt
        assert len(stream) == 2 + 2 * n + 1
