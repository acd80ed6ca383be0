"""Functional records: a program's correct-path stream, kept for replay.

The timing model is trace-driven off the correct-path stream, so the
dynamic stream of one (program, budget) pair is the same under every
processor configuration.  A :class:`FunctionalRecord` keeps that stream
as compact per-instruction columns; :func:`repro.isa.executor.execute`
replays it into fresh :class:`~repro.isa.instruction.DynInst` objects
without rebuilding the program, copying its data image or executing a
single instruction.  On the compiled kernel backend the replay is
``_ckernels.Replay`` (:func:`native_replay`), which clones each DynInst
from a per-pc prototype; :func:`replay` is its pure-Python twin.

* :class:`Recording` wraps a program's live stream and fills a record as
  the stream is consumed; the record is complete only when the stream
  ends normally within :data:`_CAPACITY` instructions.
* :class:`RecordMemo` keeps complete records, least recently used first
  out, up to :data:`_CAPACITY` recorded instructions in total, so a long
  run never grows the process's memory.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Hashable, Iterator, List, Optional

from repro.isa.instruction import DynInst
from repro.isa.program import Program

#: Most recorded instructions a memo holds, summed over its records, and
#: the longest stream a :class:`Recording` keeps: 17 bytes of columns per
#: instruction, so about 4.5 MB.
_CAPACITY = 1 << 18


class FunctionalRecord:
    """One program's correct-path stream as columns.

    ``instructions`` and ``segments`` are the program's own code list and
    data layout (what :meth:`~repro.pipeline.processor.Processor.warm_code`
    and :meth:`~repro.pipeline.processor.Processor.warm_data` read); the
    columns hold, per dynamic instruction, its pc, the pc that follows
    it, its branch outcome and its memory byte address (``0`` for an
    instruction that does not access memory).  ``len()`` is the number
    of dynamic instructions recorded.
    """

    __slots__ = ("instructions", "segments", "pcs", "next_pcs", "taken",
                 "mem_addrs", "_prototypes")

    def __init__(self, program: Program) -> None:
        self.instructions = program.instructions
        self.segments = program.segments
        self.pcs = array("i")
        self.next_pcs = array("i")
        self.taken = bytearray()
        self.mem_addrs = array("q")
        self._prototypes: Optional[List[DynInst]] = None

    def __len__(self) -> int:
        return len(self.pcs)

    def prototypes(self) -> List[DynInst]:
        """One DynInst per static instruction, made once by the real
        constructor: the templates :func:`native_replay` clones."""
        if self._prototypes is None:
            self._prototypes = [DynInst(0, pc, inst) for pc, inst
                                in enumerate(self.instructions)]
        return self._prototypes


def _count(record: FunctionalRecord, max_instructions: Optional[int]) -> int:
    count = len(record.pcs)
    if max_instructions is not None:
        count = max(0, min(count, max_instructions))
    return count


def replay(record: FunctionalRecord,
           max_instructions: Optional[int] = None) -> Iterator[DynInst]:
    """Yield ``record``'s stream (its first ``max_instructions``) as fresh
    DynInsts, equal field for field to the ones execution yielded."""
    code = record.instructions
    for seq, pc, next_pc, taken, addr in zip(
            range(_count(record, max_instructions)), record.pcs,
            record.next_pcs, record.taken, record.mem_addrs):
        inst = code[pc]
        yield DynInst(seq, pc, inst, 0, 0, addr if inst.is_mem else None,
                      taken == 1, next_pc)


def native_replay(record: FunctionalRecord,
                  max_instructions: Optional[int] = None
                  ) -> Optional[Iterator[DynInst]]:
    """:func:`replay`'s compiled twin, ``_ckernels.Replay``, or None on
    the ``py`` kernel backend."""
    # Imported here: the kernel switch lives above the ISA layer.
    from repro.core.segmented.kernels import compiled_module
    module = compiled_module()
    if module is None:
        return None
    return module.Replay(record.prototypes(), record.pcs, record.next_pcs,
                         record.taken, record.mem_addrs,
                         _count(record, max_instructions))


class Recording:
    """Records a program's stream while it is consumed.

    :meth:`stream` passes every DynInst through unchanged; once the
    stream has ended normally, :attr:`record` holds it.  It stays
    ``None`` when the stream raised, was abandoned part-way, or ran past
    :data:`_CAPACITY` instructions (recording stops there, the stream
    goes on).
    """

    def __init__(self, program: Program) -> None:
        self._program = program
        self.record: Optional[FunctionalRecord] = None

    def stream(self, dyns: Iterator[DynInst]) -> Iterator[DynInst]:
        record = FunctionalRecord(self._program)
        pcs = record.pcs.append
        next_pcs = record.next_pcs.append
        taken = record.taken.append
        mem_addrs = record.mem_addrs.append
        left = _CAPACITY
        for dyn in dyns:
            if left:
                pcs(dyn.pc)
                next_pcs(dyn.next_pc)
                taken(dyn.taken)
                mem_addrs(dyn.mem_addr or 0)
                left -= 1
            elif record is not None:
                record = None           # too long to keep
            yield dyn
        self.record = record


class RecordMemo:
    """Complete records by key, evicted least recently used first so that
    at most :data:`_CAPACITY` recorded instructions are held."""

    def __init__(self) -> None:
        self._records: "OrderedDict[Hashable, FunctionalRecord]" = \
            OrderedDict()
        self.size = 0               # recorded instructions held

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: Hashable) -> Optional[FunctionalRecord]:
        record = self._records.get(key)
        if record is not None:
            self._records.move_to_end(key)
        return record

    def put(self, key: Hashable, record: FunctionalRecord) -> None:
        if len(record) > _CAPACITY:
            return
        old = self._records.pop(key, None)
        if old is not None:
            self.size -= len(old)
        while self.size + len(record) > _CAPACITY:
            _key, evicted = self._records.popitem(last=False)
            self.size -= len(evicted)
        self._records[key] = record
        self.size += len(record)

    def clear(self) -> None:
        self._records.clear()
        self.size = 0
