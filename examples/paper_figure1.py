#!/usr/bin/env python3
"""Walk through the paper's Figure 1 worked example.

Dispatches the nine-instruction code sequence from Figure 1(a) into a
three-segment ``SegmentedIQ`` (thresholds 2 / 4 / 6) and lets it promote
without issuing: once the two chain heads reach segment 0, the queue
holds the delay values and segment placement of Figure 1(b).  Then chain
head i0 issues and its members self-time down the queue while i1's chain
waits (section 3.2's narrative).

    PYTHONPATH=src python examples/paper_figure1.py
"""

from repro.common import StatGroup
from repro.core.iq_base import Operand
from repro.core.segmented import SegmentedIQ
from repro.harness import configs
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst

# (name, text, opcode, dest reg, source regs, latency, is chain head)
EXAMPLE = [
    ("i0", "add *,* -> r1 ", Opcode.ADD, 1, (), 1, True),
    ("i1", "mul *,* -> r2 ", Opcode.MUL, 2, (), 2, True),
    ("i2", "add r2,* -> r4", Opcode.ADD, 4, (2,), 1, False),
    ("i3", "mul r4,* -> r6", Opcode.MUL, 6, (4,), 2, False),
    ("i4", "mul r6,* -> r8", Opcode.MUL, 8, (6,), 2, False),
    ("i5", "add r1,* -> r3", Opcode.ADD, 3, (1,), 1, False),
    ("i6", "add r3,* -> r5", Opcode.ADD, 5, (3,), 1, False),
    ("i7", "add r5,* -> r7", Opcode.ADD, 7, (5,), 1, False),
    ("i8", "add r6,r7-> r9", Opcode.ADD, 9, (6, 7), 1, False),
]


def dispatch_example():
    """Dispatch Figure 1 into the top segment at cycle 0 (no bypass or
    pushdown; the left/right predictor picks i8's r6 operand)."""
    params = configs.segmented(48, None, "lrp", segment_size=16,
                               pushdown=False, bypass=False).iq
    iq = SegmentedIQ(params, issue_width=8, stats=StatGroup())
    iq.in_flight = 1        # nothing issues: keep deadlock recovery quiet
    producers = {}
    entries = {}
    for seq, (name, _text, opcode, dest, srcs, latency, is_head) in \
            enumerate(EXAMPLE):
        inst = DynInst(seq=seq, pc=seq, static=Instruction(
            opcode=opcode, dest=dest, srcs=srcs))
        inst.latency = latency          # Figure 1's MUL takes 2 cycles
        if is_head:
            # The model makes only loads and two-chain instructions
            # chain heads; Figure 1's heads are an add and a mul.
            plan = iq._plan(inst, 0)
            plan.needs_chain = True
            plan.head_latency = latency
        operands = [Operand(reg, producers[reg], None) for reg in srcs]
        entries[name] = iq.dispatch(inst, operands, now=0)
        producers[dest] = inst
    return iq, entries


def main() -> None:
    iq, entries = dispatch_example()
    for cycle in range(1, 6):
        iq.cycle(cycle)

    print("Figure 1(a): delay values once both heads sit in segment 0\n")
    print(f"  {'inst':<4} {'code':<16} {'latency':>7} {'delay':>6} "
          f"{'segment':>8}")
    for name, text, _opcode, _dest, _srcs, latency, _head in EXAMPLE:
        entry = entries[name]
        print(f"  {name:<4} {text:<16} {latency:>7} "
              f"{iq.delay_of(entry):>6} {iq.segment_of(entry):>8}")

    print("\nFigure 1(b): instructions per segment "
          "(thresholds 2 / 4 / 6)\n")
    for segment in reversed(range(iq.num_segments)):
        members = [name for name, entry in entries.items()
                   if iq.segment_of(entry) == segment]
        print(f"  segment {segment}: {', '.join(members)}")

    print("\nSection 3.2: chain head i0 issues at cycle 6; its chain "
          "self-times.\n")
    iq.select_issue(6, lambda inst: inst.seq == 0)
    for cycle in range(6, 10):
        iq.cycle(cycle)
        row = "  ".join(
            f"{name}={iq.delay_of(entries[name])}"
            f"@seg{iq.segment_of(entries[name])}"
            for name in ("i5", "i6", "i7", "i2"))
        print(f"  cycle {cycle}: {row}")
    print("\ni5/i6/i7 count down into segment 0 and become issue "
          "candidates, while i1's chain (i2) waits — exactly Figure 1's "
          "narrative.")


if __name__ == "__main__":
    main()
