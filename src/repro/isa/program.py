"""Program container: instructions plus a data-segment description."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.common.errors import ProgramError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import WORD_BYTES

#: One architectural word: ``int`` from integer ops, ``float`` from FP ops.
Value = Union[int, float]


@dataclass
class DataSegment:
    """A named block of words in the flat data memory."""

    name: str
    base: int          # byte address
    words: int

    @property
    def bytes(self) -> int:
        return self.words * WORD_BYTES

    def addr(self, index: int) -> int:
        """Byte address of element ``index``."""
        if not 0 <= index < self.words:
            raise ProgramError(
                f"index {index} out of range for segment {self.name!r} "
                f"({self.words} words)")
        return self.base + index * WORD_BYTES


@dataclass
class Program:
    """A complete program: code, labels, and data layout.

    ``memory_words`` is the total size of the data memory the program needs;
    ``initial_memory`` is the data image execution starts from: a dense
    list of words from word 0 up to the last word the builder initialised
    (explicit zeros included), each value kept exactly as given.  Words
    past its end are not stored and start as the integer ``0``.
    """

    instructions: List[Instruction]
    labels: Dict[str, int] = field(default_factory=dict)
    segments: Dict[str, DataSegment] = field(default_factory=dict)
    memory_words: int = 0
    initial_memory: List[Value] = field(default_factory=list)
    name: str = "program"

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def segment(self, name: str) -> DataSegment:
        try:
            return self.segments[name]
        except KeyError:
            raise ProgramError(f"no data segment named {name!r}") from None

    def validate(self) -> None:
        """Check structural invariants: targets in range, halt present,
        data image within the data memory."""
        if not self.instructions:
            raise ProgramError("empty program")
        for pc, inst in enumerate(self.instructions):
            if inst.target is not None and not (
                    0 <= inst.target < len(self.instructions)):
                raise ProgramError(
                    f"instruction {pc} ({inst}) targets out-of-range "
                    f"index {inst.target}")
            if inst.is_control and inst.target is None:
                raise ProgramError(f"instruction {pc} ({inst}) has no target")
        if not any(inst.is_halt for inst in self.instructions):
            raise ProgramError("program has no halt instruction")
        if len(self.initial_memory) > self.memory_words:
            raise ProgramError(
                f"initial memory image of {len(self.initial_memory)} words "
                f"outside memory ({self.memory_words} words)")

    def disassemble(self) -> str:
        """Human-readable listing with label annotations."""
        by_index: Dict[int, List[str]] = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        lines = []
        for pc, inst in enumerate(self.instructions):
            for label in sorted(by_index.get(pc, ())):
                lines.append(f"{label}:")
            lines.append(f"  {pc:4d}: {inst}")
        return "\n".join(lines)
