"""A small assembler DSL for writing kernels in the repro ISA.

Example::

    b = ProgramBuilder("daxpy")
    x = b.alloc("x", 1024)
    y = b.alloc("y", 1024)
    i, n = R(1), R(2)
    b.li(n, 1024)
    b.li(i, 0)
    b.label("loop")
    addr = R(3)
    b.slli(addr, i, 3)
    b.fld(F(0), addr, base=x)
    b.fld(F(1), addr, base=y)
    b.fmul(F(2), F(0), F(4))
    b.fadd(F(3), F(2), F(1))
    b.fst(F(3), addr, base=y)
    b.addi(i, i, 1)
    b.blt(i, n, "loop")
    b.halt()
    program = b.build()

Branch targets are labels, resolved at :meth:`ProgramBuilder.build` time.
Data arrays are allocated with :meth:`alloc`; the returned
:class:`~repro.isa.program.DataSegment` can be used as a ``base=`` for memory
operations (the segment base is folded into the immediate displacement).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.common.errors import ProgramError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import WORD_BYTES, Opcode
from repro.isa.program import DataSegment, Program, Value

Target = Union[str, int]


class ProgramBuilder:
    """Accumulates instructions and data segments, then builds a Program."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._fixups: List[int] = []     # indices whose target is a label
        self._targets: List[Optional[Target]] = []
        self._segments: Dict[str, DataSegment] = {}
        self._next_base = 0
        self._image: List[Value] = []     # dense data image from word 0

    # ------------------------------------------------------------- data --
    def alloc(self, name: str, words: int, *, align_bytes: int = 64,
              init: Optional[Sequence[Value]] = None) -> DataSegment:
        """Allocate a named array of ``words`` 8-byte words.

        Segments are aligned to ``align_bytes`` (cache-line aligned by
        default) so kernels have predictable cache behaviour.
        """
        if name in self._segments:
            raise ProgramError(f"segment {name!r} already allocated")
        if words <= 0:
            raise ProgramError("segment must have at least one word")
        base = -(-self._next_base // align_bytes) * align_bytes
        segment = DataSegment(name=name, base=base, words=words)
        self._segments[name] = segment
        self._next_base = base + segment.bytes
        if init is not None and len(init) > words:
            raise ProgramError(f"init data for {name!r} longer than segment")
        if init:
            self._write(base // WORD_BYTES, init)
        return segment

    def set_word(self, segment: DataSegment, index: int, value: Value) -> None:
        """Set the initial value of one element of ``segment``."""
        self._write(segment.addr(index) // WORD_BYTES, (value,))

    def _write(self, first_word: int, values: Sequence[Value]) -> None:
        """Store ``values`` into the image from ``first_word`` on, filling
        any gap before it with int ``0`` (the value of unset memory)."""
        image = self._image
        if len(image) < first_word:
            image.extend([0] * (first_word - len(image)))
        image[first_word:first_word + len(values)] = values

    # ------------------------------------------------------------ labels --
    def label(self, name: str) -> None:
        """Define ``name`` at the current instruction position."""
        if name in self._labels:
            raise ProgramError(f"label {name!r} redefined")
        self._labels[name] = len(self._instructions)

    def here(self) -> int:
        """Index of the next instruction to be emitted."""
        return len(self._instructions)

    # -------------------------------------------------------------- emit --
    def _emit(self, opcode: Opcode, dest: Optional[int] = None,
              srcs: tuple = (), imm: int = 0,
              target: Optional[Target] = None) -> None:
        self._instructions.append(Instruction(
            opcode=opcode, dest=dest, srcs=srcs, imm=imm,
            target=target if isinstance(target, int) else None))
        self._targets.append(target)

    # Integer three-register ops.
    def add(self, rd: int, ra: int, rb: int) -> None:
        self._emit(Opcode.ADD, rd, (ra, rb))

    def sub(self, rd: int, ra: int, rb: int) -> None:
        self._emit(Opcode.SUB, rd, (ra, rb))

    def and_(self, rd: int, ra: int, rb: int) -> None:
        self._emit(Opcode.AND, rd, (ra, rb))

    def or_(self, rd: int, ra: int, rb: int) -> None:
        self._emit(Opcode.OR, rd, (ra, rb))

    def xor(self, rd: int, ra: int, rb: int) -> None:
        self._emit(Opcode.XOR, rd, (ra, rb))

    def sll(self, rd: int, ra: int, rb: int) -> None:
        self._emit(Opcode.SLL, rd, (ra, rb))

    def srl(self, rd: int, ra: int, rb: int) -> None:
        self._emit(Opcode.SRL, rd, (ra, rb))

    def slt(self, rd: int, ra: int, rb: int) -> None:
        self._emit(Opcode.SLT, rd, (ra, rb))

    def mul(self, rd: int, ra: int, rb: int) -> None:
        self._emit(Opcode.MUL, rd, (ra, rb))

    def div(self, rd: int, ra: int, rb: int) -> None:
        self._emit(Opcode.DIV, rd, (ra, rb))

    # Integer immediates.
    def addi(self, rd: int, ra: int, imm: int) -> None:
        self._emit(Opcode.ADDI, rd, (ra,), imm)

    def andi(self, rd: int, ra: int, imm: int) -> None:
        self._emit(Opcode.ANDI, rd, (ra,), imm)

    def ori(self, rd: int, ra: int, imm: int) -> None:
        self._emit(Opcode.ORI, rd, (ra,), imm)

    def slli(self, rd: int, ra: int, imm: int) -> None:
        self._emit(Opcode.SLLI, rd, (ra,), imm)

    def srli(self, rd: int, ra: int, imm: int) -> None:
        self._emit(Opcode.SRLI, rd, (ra,), imm)

    def slti(self, rd: int, ra: int, imm: int) -> None:
        self._emit(Opcode.SLTI, rd, (ra,), imm)

    def lui(self, rd: int, imm: int) -> None:
        """Load ``imm`` shifted left by 16 (for large constants)."""
        self._emit(Opcode.LUI, rd, (0,), imm)

    def li(self, rd: int, value: int) -> None:
        """Load an immediate constant (pseudo-op: addi rd, r0, value)."""
        self._emit(Opcode.ADDI, rd, (0,), value)

    def mov(self, rd: int, ra: int) -> None:
        """Register move (pseudo-op: addi rd, ra, 0)."""
        self._emit(Opcode.ADDI, rd, (ra,), 0)

    # Floating point.
    def fadd(self, fd: int, fa: int, fb: int) -> None:
        self._emit(Opcode.FADD, fd, (fa, fb))

    def fsub(self, fd: int, fa: int, fb: int) -> None:
        self._emit(Opcode.FSUB, fd, (fa, fb))

    def fmul(self, fd: int, fa: int, fb: int) -> None:
        self._emit(Opcode.FMUL, fd, (fa, fb))

    def fdiv(self, fd: int, fa: int, fb: int) -> None:
        self._emit(Opcode.FDIV, fd, (fa, fb))

    def fsqrt(self, fd: int, fa: int) -> None:
        self._emit(Opcode.FSQRT, fd, (fa,))

    def fneg(self, fd: int, fa: int) -> None:
        self._emit(Opcode.FNEG, fd, (fa,))

    def cvtif(self, fd: int, ra: int) -> None:
        self._emit(Opcode.CVTIF, fd, (ra,))

    def cvtfi(self, rd: int, fa: int) -> None:
        self._emit(Opcode.CVTFI, rd, (fa,))

    def fcmplt(self, rd: int, fa: int, fb: int) -> None:
        self._emit(Opcode.FCMPLT, rd, (fa, fb))

    # Memory.  ``base`` folds a DataSegment's byte base into the immediate.
    def _mem_imm(self, offset: int, base: Optional[DataSegment]) -> int:
        return offset + (base.base if base is not None else 0)

    def ld(self, rd: int, addr_reg: int, offset: int = 0,
           base: Optional[DataSegment] = None) -> None:
        self._emit(Opcode.LD, rd, (addr_reg,), self._mem_imm(offset, base))

    def st(self, rs: int, addr_reg: int, offset: int = 0,
           base: Optional[DataSegment] = None) -> None:
        self._emit(Opcode.ST, None, (addr_reg, rs),
                   self._mem_imm(offset, base))

    def fld(self, fd: int, addr_reg: int, offset: int = 0,
            base: Optional[DataSegment] = None) -> None:
        self._emit(Opcode.FLD, fd, (addr_reg,), self._mem_imm(offset, base))

    def fst(self, fs: int, addr_reg: int, offset: int = 0,
            base: Optional[DataSegment] = None) -> None:
        self._emit(Opcode.FST, None, (addr_reg, fs),
                   self._mem_imm(offset, base))

    # Control flow.
    def beq(self, ra: int, rb: int, target: Target) -> None:
        self._emit(Opcode.BEQ, None, (ra, rb), target=target)

    def bne(self, ra: int, rb: int, target: Target) -> None:
        self._emit(Opcode.BNE, None, (ra, rb), target=target)

    def blt(self, ra: int, rb: int, target: Target) -> None:
        self._emit(Opcode.BLT, None, (ra, rb), target=target)

    def bge(self, ra: int, rb: int, target: Target) -> None:
        self._emit(Opcode.BGE, None, (ra, rb), target=target)

    def ble(self, ra: int, rb: int, target: Target) -> None:
        self._emit(Opcode.BLE, None, (ra, rb), target=target)

    def bgt(self, ra: int, rb: int, target: Target) -> None:
        self._emit(Opcode.BGT, None, (ra, rb), target=target)

    def jmp(self, target: Target) -> None:
        self._emit(Opcode.JMP, target=target)

    def halt(self) -> None:
        self._emit(Opcode.HALT)

    def nop(self) -> None:
        self._emit(Opcode.NOP)

    # ------------------------------------------------------------- build --
    def build(self) -> Program:
        """Resolve labels and produce a validated Program."""
        instructions: List[Instruction] = []
        for index, (inst, target) in enumerate(
                zip(self._instructions, self._targets)):
            if isinstance(target, str):
                if target not in self._labels:
                    raise ProgramError(
                        f"instruction {index} references undefined label "
                        f"{target!r}")
                inst = Instruction(opcode=inst.opcode, dest=inst.dest,
                                   srcs=inst.srcs, imm=inst.imm,
                                   target=self._labels[target])
            instructions.append(inst)
        program = Program(
            instructions=instructions,
            labels=dict(self._labels),
            segments=dict(self._segments),
            memory_words=-(-self._next_base // WORD_BYTES),
            initial_memory=list(self._image),
            name=self.name)
        program.validate()
        return program
