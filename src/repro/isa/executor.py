"""Functional (architectural) simulator.

Executes a :class:`~repro.isa.program.Program` and yields the dynamic
instruction stream (:class:`~repro.isa.instruction.DynInst`).  The timing
model is trace-driven off this stream: register dependences, memory
addresses, and branch outcomes are all architecturally exact.
:func:`execute` also replays a recorded stream
(:class:`~repro.isa.record.FunctionalRecord`) without executing it.

Arithmetic note: integer values are plain Python ints (no 64-bit wraparound)
— kernels in this repository never rely on overflow.  Shifts mask their
amount to 6 bits so a bad shift cannot explode memory.

Numeric representation: registers and memory words hold plain Python
numbers, and the *type* of every cell is deterministic — integer opcodes
always write ``int`` (operands are coerced with ``int()``), floating-point
opcodes always write ``float``, and uninitialized cells are the integer
``0`` in both the register file and memory.  ``Program.initial_memory``
values are stored exactly as the workload builder provided them.  This
type-stability is load-bearing for the program-image digests
(``tests/isa/test_program_image.py``): they hash
:meth:`MachineState.snapshot` as canonical JSON, and a byte-stable
encoding requires int-ness/float-ness of every cell to be reproducible
(``0`` and ``0.0`` compare equal but serialize differently).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.common.errors import ExecutionError
from repro.isa.instruction import DynInst, Instruction
from repro.isa.opcodes import NUM_REGS, WORD_BYTES, Opcode
from repro.isa.program import Program, Value
from repro.isa.record import FunctionalRecord, native_replay, replay


class MachineState:
    """Architectural state: register file, flat data memory, and the
    execution cursor (pc / halt flag / dynamic-instruction index).

    The cursor lives here so execution can continue from wherever a
    state stands (see :func:`execute_from`).
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.regs: List[Value] = [0] * NUM_REGS
        # Program.validate() bounds the image by memory_words.
        image = program.initial_memory
        self.memory: List[Value] = image + [0] * (
            max(1, program.memory_words) - len(image))
        self.pc = 0
        self.halted = False
        self.instruction_count = 0

    def read_reg(self, reg: int) -> Value:
        return self.regs[reg]

    def write_reg(self, reg: Optional[int], value: Value) -> None:
        if reg is None or reg == 0:   # r0 is hardwired to zero
            return
        self.regs[reg] = value

    def mem_word_index(self, byte_addr: int) -> int:
        if byte_addr % WORD_BYTES:
            raise ExecutionError(f"unaligned access at byte {byte_addr}")
        index = byte_addr // WORD_BYTES
        if not 0 <= index < len(self.memory):
            raise ExecutionError(
                f"access at byte {byte_addr} outside memory "
                f"({len(self.memory)} words)")
        return index

    def load(self, byte_addr: int) -> Value:
        return self.memory[self.mem_word_index(byte_addr)]

    def store(self, byte_addr: int, value: Value) -> None:
        self.memory[self.mem_word_index(byte_addr)] = value

    # ------------------------------------------------------------ snapshot --
    def snapshot(self) -> Dict[str, object]:
        """Plain-data capture of the architectural state.

        The result is JSON-serializable and, thanks to the type-stable
        numeric representation (module docstring), two snapshots of the
        same execution point always encode to identical bytes.
        """
        return {
            "pc": self.pc,
            "halted": self.halted,
            "instruction_count": self.instruction_count,
            "regs": list(self.regs),
            "memory": list(self.memory),
        }


def _branch_taken(opcode: Opcode, a: float, b: float) -> bool:
    if opcode is Opcode.BEQ:
        return a == b
    if opcode is Opcode.BNE:
        return a != b
    if opcode is Opcode.BLT:
        return a < b
    if opcode is Opcode.BGE:
        return a >= b
    if opcode is Opcode.BLE:
        return a <= b
    if opcode is Opcode.BGT:
        return a > b
    raise ExecutionError(f"not a branch opcode: {opcode}")


def _step(state: MachineState, inst: Instruction) -> DynInst:
    """Execute one instruction, mutate state, and return its DynInst."""
    opcode = inst.opcode
    regs = state.regs
    srcs = inst.srcs
    # write_reg, inlined: `if dest` skips both None and the hardwired r0.
    dest = inst.dest
    dyn = DynInst(state.instruction_count, state.pc, inst)
    next_pc = state.pc + 1

    # Operation tables are keyed by opcode *value* (a plain string with a
    # cached hash): Enum.__hash__ is a Python-level call and this lookup
    # runs once per simulated instruction (``opv`` is the precomputed
    # mirror on the static instruction — Enum.value is itself a
    # descriptor call).
    opv = inst.opv
    fn = _INT_BINOPS_V.get(opv)
    if fn is not None:
        value = fn(int(regs[srcs[0]]), int(regs[srcs[1]]))
        if dest:
            regs[dest] = value
    elif (fn := _INT_IMMOPS_V.get(opv)) is not None:
        value = fn(int(regs[srcs[0]]), inst.imm)
        if dest:
            regs[dest] = value
    elif (fn := _FP_BINOPS_V.get(opv)) is not None:
        value = fn(float(regs[srcs[0]]), float(regs[srcs[1]]))
        if dest:
            regs[dest] = value
    elif opcode is Opcode.FNEG:
        value = -float(regs[srcs[0]])
        if dest:
            regs[dest] = value
    elif opcode is Opcode.FSQRT:
        value = float(regs[srcs[0]])
        if value < 0:
            raise ExecutionError(f"fsqrt of negative value {value} at pc {state.pc}")
        if dest:
            regs[dest] = value ** 0.5
    elif opcode is Opcode.CVTIF:
        value = float(regs[srcs[0]])
        if dest:
            regs[dest] = value
    elif opcode is Opcode.CVTFI:
        value = int(regs[srcs[0]])
        if dest:
            regs[dest] = value
    elif opcode is Opcode.FCMPLT:
        value = 1 if float(regs[srcs[0]]) < float(regs[srcs[1]]) else 0
        if dest:
            regs[dest] = value
    elif opcode in (Opcode.LD, Opcode.FLD):
        addr = int(regs[srcs[0]]) + inst.imm
        dyn.mem_addr = addr
        if dest:
            regs[dest] = state.load(addr)
        else:
            state.load(addr)
    elif opcode in (Opcode.ST, Opcode.FST):
        addr = int(regs[srcs[0]]) + inst.imm
        dyn.mem_addr = addr
        state.store(addr, regs[srcs[1]])
    elif inst.is_branch:
        taken = _branch_taken(opcode, regs[srcs[0]], regs[srcs[1]])
        dyn.taken = taken
        if taken:
            next_pc = inst.target          # validated by Program.validate
    elif opcode is Opcode.JMP:
        dyn.taken = True
        next_pc = inst.target
    elif opcode is Opcode.HALT:
        state.halted = True
    elif opcode is Opcode.NOP:
        pass
    else:
        raise ExecutionError(f"unimplemented opcode {opcode}")

    state.pc = next_pc
    state.instruction_count += 1
    dyn.next_pc = next_pc
    return dyn


_INT_BINOPS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SLL: lambda a, b: a << (b & 63),
    Opcode.SRL: lambda a, b: a >> (b & 63),
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: lambda a, b: _int_div(a, b),
}

_INT_IMMOPS = {
    Opcode.ADDI: lambda a, imm: a + imm,
    Opcode.ANDI: lambda a, imm: a & imm,
    Opcode.ORI: lambda a, imm: a | imm,
    Opcode.SLLI: lambda a, imm: a << (imm & 63),
    Opcode.SRLI: lambda a, imm: a >> (imm & 63),
    Opcode.SLTI: lambda a, imm: 1 if a < imm else 0,
    Opcode.LUI: lambda a, imm: imm << 16,
}

_FP_BINOPS = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: _fp_div(a, b),
}

#: Value-keyed mirrors used by the _step hot path (see the note there).
_INT_BINOPS_V = {op.value: fn for op, fn in _INT_BINOPS.items()}
_INT_IMMOPS_V = {op.value: fn for op, fn in _INT_IMMOPS.items()}
_FP_BINOPS_V = {op.value: fn for op, fn in _FP_BINOPS.items()}


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("integer division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _fp_div(a: float, b: float) -> float:
    if b == 0:
        raise ExecutionError("fp division by zero")
    return a / b


def step_instruction(state: MachineState, inst: Instruction) -> DynInst:
    """Execute one instruction against ``state`` (public single-step API).

    Used by the validation oracle to replay a retired-instruction stream
    against fresh architectural state; semantics are identical to
    :func:`execute`, one instruction at a time.
    """
    return _step(state, inst)


def execute_from(state: MachineState,
                 max_instructions: Optional[int] = None) -> Iterator[DynInst]:
    """Yield the dynamic stream of ``state``'s program, continuing from
    wherever ``state`` currently stands.

    ``max_instructions`` is an *absolute* dynamic-instruction index (the
    same axis as ``state.instruction_count``), so continuing a state that
    stands at index K with ``max_instructions=N`` yields exactly the
    instructions an uninterrupted ``execute(program, max_instructions=N)``
    would have yielded from index K on.  ``state`` is mutated in place.
    :func:`execute` and :func:`run_functional` run on it.
    """
    code = state.program.instructions
    limit = max_instructions if max_instructions is not None else float("inf")
    while not state.halted and state.instruction_count < limit:
        if not 0 <= state.pc < len(code):
            raise ExecutionError(f"pc {state.pc} fell off the program")
        yield _step(state, code[state.pc])


def execute(program: Union[Program, FunctionalRecord],
            max_instructions: Optional[int] = None) -> Iterator[DynInst]:
    """Yield the dynamic instruction stream of ``program``.

    Stops at the halt instruction (which is yielded) or after
    ``max_instructions`` dynamic instructions, whichever comes first.
    A :class:`~repro.isa.record.FunctionalRecord` is replayed instead of
    executed: the same DynInsts, field for field, each one fresh (by the
    compiled replay whenever the kernel backend is compiled).
    """
    if isinstance(program, FunctionalRecord):
        stream = native_replay(program, max_instructions)
        return stream if stream is not None else replay(
            program, max_instructions)
    return execute_from(MachineState(program), max_instructions)


def run_functional(program: Program,
                   max_instructions: Optional[int] = None) -> MachineState:
    """Execute to completion and return the final architectural state."""
    state = MachineState(program)
    for _ in execute_from(state, max_instructions):
        pass
    return state
