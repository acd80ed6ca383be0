"""Tests for the program builder DSL and program container."""

import pytest

from repro.common.errors import ProgramError
from repro.isa import F, Opcode, ProgramBuilder, R


def minimal_builder():
    builder = ProgramBuilder("t")
    return builder


class TestLabels:
    def test_branch_resolves_to_label_index(self):
        b = minimal_builder()
        b.li(R(1), 0)
        b.label("loop")
        b.addi(R(1), R(1), 1)
        b.blt(R(1), R(2), "loop")
        b.halt()
        program = b.build()
        branch = program.instructions[2]
        assert branch.opcode is Opcode.BLT
        assert branch.target == 1

    def test_forward_label(self):
        b = minimal_builder()
        b.beq(R(1), R(0), "done")
        b.addi(R(1), R(1), 1)
        b.label("done")
        b.halt()
        program = b.build()
        assert program.instructions[0].target == 2

    def test_undefined_label_raises(self):
        b = minimal_builder()
        b.jmp("nowhere")
        b.halt()
        with pytest.raises(ProgramError, match="undefined label"):
            b.build()

    def test_duplicate_label_raises(self):
        b = minimal_builder()
        b.label("x")
        with pytest.raises(ProgramError, match="redefined"):
            b.label("x")


class TestDataSegments:
    def test_alloc_is_line_aligned(self):
        b = minimal_builder()
        a = b.alloc("a", 3)        # 24 bytes
        c = b.alloc("c", 1)
        assert a.base == 0
        assert c.base == 64        # next line boundary

    def test_alloc_duplicate_name_raises(self):
        b = minimal_builder()
        b.alloc("a", 1)
        with pytest.raises(ProgramError, match="already allocated"):
            b.alloc("a", 1)

    def test_base_folds_into_displacement(self):
        b = minimal_builder()
        seg = b.alloc("pad", 8)
        seg2 = b.alloc("arr", 4)
        b.fld(F(0), R(1), 8, base=seg2)
        b.halt()
        program = b.build()
        assert program.instructions[0].imm == seg2.base + 8

    def test_init_data_lands_in_memory_words(self):
        b = minimal_builder()
        seg = b.alloc("arr", 4, init=[1.5, 2.5])
        b.set_word(seg, 3, 9.0)
        b.halt()
        program = b.build()
        first = seg.base // 8
        assert program.initial_memory[first] == 1.5
        assert program.initial_memory[first + 1] == 2.5
        assert program.initial_memory[first + 3] == 9.0

    def test_init_longer_than_segment_raises(self):
        b = minimal_builder()
        with pytest.raises(ProgramError):
            b.alloc("a", 1, init=[1.0, 2.0])

    def test_segment_addr_bounds_checked(self):
        b = minimal_builder()
        seg = b.alloc("a", 2)
        assert seg.addr(1) == seg.base + 8
        with pytest.raises(ProgramError):
            seg.addr(2)


class TestValidation:
    def test_missing_halt_rejected(self):
        b = minimal_builder()
        b.nop()
        with pytest.raises(ProgramError, match="halt"):
            b.build()

    def test_empty_program_rejected(self):
        with pytest.raises(ProgramError, match="empty"):
            minimal_builder().build()

    def test_store_has_no_dest(self):
        b = minimal_builder()
        b.st(R(2), R(1), 0)
        b.halt()
        program = b.build()
        store = program.instructions[0]
        assert store.dest is None
        assert store.srcs == (R(1), R(2))


class TestDisassembly:
    def test_disassemble_mentions_labels_and_registers(self):
        b = minimal_builder()
        b.label("start")
        b.fadd(F(1), F(2), F(3))
        b.halt()
        text = b.build().disassemble()
        assert "start:" in text
        assert "fadd" in text
        assert "f1" in text

    def test_segment_lookup_by_name(self):
        b = minimal_builder()
        b.alloc("table", 16)
        b.halt()
        program = b.build()
        assert program.segment("table").words == 16
        with pytest.raises(ProgramError):
            program.segment("missing")
