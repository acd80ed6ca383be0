"""Static and dynamic instruction representations.

A :class:`Instruction` is one line of a program (static).  The functional
simulator turns these into :class:`DynInst` objects — the dynamic stream the
timing model consumes.  A ``DynInst`` carries everything the timing model
needs: true register sources, the memory address (for loads/stores), and the
resolved branch outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.isa.opcodes import OpClass, Opcode, OpInfo, op_info
from repro.isa.registers import reg_name


@dataclass(frozen=True, slots=True)
class Instruction:
    """One static instruction.

    ``dest`` and ``srcs`` are architected register indices (flat space; see
    :mod:`repro.isa.registers`).  ``imm`` is the immediate operand (also the
    load/store displacement).  ``target`` is the branch/jump target as an
    instruction index, resolved from a label by the builder.
    """

    opcode: Opcode
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    imm: int = 0
    target: Optional[int] = None
    # Opcode metadata, precomputed once: the timing model consults these
    # predicates millions of times per run, so they are plain attributes
    # rather than properties.  (init=False fields on a frozen dataclass
    # are filled in __post_init__ via object.__setattr__.)
    info: OpInfo = field(init=False, repr=False, compare=False)
    op_class: OpClass = field(init=False, repr=False, compare=False)
    latency: int = field(init=False, repr=False, compare=False)
    # The opcode's string value: Enum.value is a DynamicClassAttribute
    # (a Python-level descriptor call), so the executor's per-instruction
    # table lookups read this plain attribute instead.
    opv: str = field(init=False, repr=False, compare=False)
    is_load: bool = field(init=False, repr=False, compare=False)
    is_store: bool = field(init=False, repr=False, compare=False)
    is_mem: bool = field(init=False, repr=False, compare=False)
    is_branch: bool = field(init=False, repr=False, compare=False)
    is_control: bool = field(init=False, repr=False, compare=False)
    is_halt: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        info = op_info(self.opcode)
        op_class = info.op_class
        object.__setattr__(self, "info", info)
        object.__setattr__(self, "op_class", op_class)
        object.__setattr__(self, "latency", info.latency)
        object.__setattr__(self, "opv", self.opcode.value)
        object.__setattr__(self, "is_load", op_class is OpClass.LOAD)
        object.__setattr__(self, "is_store", op_class is OpClass.STORE)
        object.__setattr__(self, "is_mem",
                           op_class in (OpClass.LOAD, OpClass.STORE))
        object.__setattr__(self, "is_branch", op_class is OpClass.BRANCH)
        object.__setattr__(self, "is_control",
                           op_class in (OpClass.BRANCH, OpClass.JUMP))
        object.__setattr__(self, "is_halt", op_class is OpClass.HALT)

    # frozen + slots breaks default pickling on Python 3.10 (the generated
    # __setstate__ path calls setattr, which a frozen class rejects); spell
    # the state protocol out so programs can cross process-pool boundaries.
    def __getstate__(self):
        return {name: getattr(self, name)
                for name in self.__dataclass_fields__}

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __str__(self) -> str:
        parts = [self.opcode.value]
        operands = []
        if self.dest is not None:
            operands.append(reg_name(self.dest))
        operands.extend(reg_name(src) for src in self.srcs)
        if self.imm:
            operands.append(str(self.imm))
        if self.target is not None:
            operands.append(f"@{self.target}")
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)


@dataclass(slots=True)
class DynInst:
    """One dynamic instruction as produced by the functional simulator.

    The timing model annotates it with scheduling state as it flows through
    the pipeline; the functional fields (``mem_addr``, ``taken``, ``next_pc``)
    are fixed at creation.
    """

    seq: int                       # dynamic sequence number (program order)
    pc: int                        # static instruction index
    static: Instruction
    thread: int = 0                # hardware thread (SMT), 0 when single
    cluster: int = 0               # execution cluster, 0 when unclustered
    mem_addr: Optional[int] = None  # byte address for loads/stores
    taken: bool = False             # resolved branch direction
    next_pc: int = 0                # PC of the next dynamic instruction

    # --- timing-model scheduling state (set by the pipeline) ---
    rob_index: int = -1
    fetched_cycle: int = -1
    dispatched_cycle: int = -1
    issued_cycle: int = -1
    completed_cycle: int = -1
    committed_cycle: int = -1
    squashed: bool = False
    # Branch-prediction outcome, filled by the fetch stage.
    predicted_taken: Optional[bool] = None
    mispredicted: bool = False
    # Memory outcome, filled by the data cache ("l1", "l2", "mem", "delayed",
    # "forward") once the access completes.
    mem_level: Optional[str] = None
    # --- wakeup plumbing ---
    # Cycle at which this instruction's destination value is available to
    # consumers; None until known (fixed-latency ops learn it at issue,
    # loads at data return).
    value_ready_cycle: Optional[int] = None
    # Waiters notified when value_ready_cycle becomes known.  Consumers
    # dispatched before the producer issues register here: a callable
    # invoked with the ready cycle, a (queue, entry, index) operand-wakeup
    # triple (see InstructionQueue._subscribe), or a typed record
    # (callback, arg) invoked as callback(arg, cycle) (a store's data
    # register, see LoadStoreQueue.dispatch).
    waiters: list = field(default_factory=list)

    def set_value_ready(self, cycle: int) -> None:
        """Record when the destination value becomes available and notify
        all registered waiters."""
        self.value_ready_cycle = cycle
        waiters, self.waiters = self.waiters, []
        for waiter in waiters:
            if type(waiter) is tuple:
                if len(waiter) == 2:
                    # A typed record (callback, arg), e.g. a store's data.
                    callback, arg = waiter
                    callback(arg, cycle)
                    continue
                queue, entry, index = waiter
                if entry.source_known(index, cycle):
                    queue.on_entry_ready_known(entry)
            else:
                waiter(cycle)

    # Hot predicates and operand fields mirrored from the static
    # instruction as plain attributes (see Instruction.__post_init__ for
    # why; ``dest``/``srcs`` are consulted several times per instruction
    # by rename, dispatch planning and the RIT update).
    is_load: bool = field(init=False, repr=False)
    is_store: bool = field(init=False, repr=False)
    is_mem: bool = field(init=False, repr=False)
    is_branch: bool = field(init=False, repr=False)
    is_control: bool = field(init=False, repr=False)
    op_class: OpClass = field(init=False, repr=False)
    latency: int = field(init=False, repr=False)
    dest: Optional[int] = field(init=False, repr=False)
    srcs: Tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        static = self.static
        self.is_load = static.is_load
        self.is_store = static.is_store
        self.is_mem = static.is_mem
        self.is_branch = static.is_branch
        self.is_control = static.is_control
        self.op_class = static.op_class
        self.latency = static.latency
        self.dest = static.dest
        self.srcs = static.srcs

    @property
    def opcode(self) -> Opcode:
        return self.static.opcode

    def __repr__(self) -> str:
        return f"DynInst(#{self.seq} pc={self.pc} {self.static})"
