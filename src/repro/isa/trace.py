"""The committed dynamic instruction stream, stored as columns.

Every trace source -- the emulator (:mod:`repro.isa.emulator`), the
synthetic generator (:mod:`repro.workloads.synthetic`) and the
external JSON-lines loader (:mod:`repro.workloads.trace_format`) --
appends straight into parallel lists indexed by dynamic sequence
number, and emits each instruction's producer links as it goes (each
keeps a last-writer table).  A :class:`Trace` holds those lists and
derives the rest with C-level ``map``\\ s, so the arrays the compiled
cycle loop reads (:mod:`repro.uarch.compile`) are the trace's own
columns: nothing walks the stream again before a simulation.

:class:`DynInst` records -- one object per instruction -- are a lazy
view (:attr:`Trace.insts`), built on first use and cached, for the
readers that want whole records: the reference model, the dependence
walk of :func:`repro.uarch.depend.dependence_info`, the analyses, the
oracle, the timeline and the traced runner's event details.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, repeat
from operator import contains
from typing import TYPE_CHECKING

from repro.isa.instructions import FP_REG_BASE, OPCODES, OpClass

if TYPE_CHECKING:
    from repro.isa.assembler import Program

#: Producer seq meaning "value was available before the trace began".
NO_PRODUCER = -1

#: ``dest_kind`` codes: no destination / integer dest / floating dest.
DEST_NONE = 0
DEST_INT = 1
DEST_FP = 2

#: Each opcode's one-byte id, and per id the 0/1 class flags: a
#: trace maps its opcodes to ids once, then ``bytes.translate`` gives
#: each flag column at C speed.
_OPCODE_ID = {op: index for index, op in enumerate(OPCODES)}
_CLASSES = [info.op_class for info in OPCODES.values()]


def _flags(*classes: OpClass) -> bytes:
    """A translate table: 1 at the ids of ``classes``' opcodes."""
    return bytes(int(c in classes) for c in _CLASSES).ljust(256, b"\0")


_IS_LOAD = _flags(OpClass.LOAD)
_IS_STORE = _flags(OpClass.STORE)
_IS_MEM = _flags(OpClass.LOAD, OpClass.STORE)
_IS_BRANCH = _flags(OpClass.BRANCH)

#: Per destination (``None`` or a flat register): renamer kind and
#: class-local index.
_REGS = range(1, 2 * FP_REG_BASE)
_DEST_KIND = {None: DEST_NONE,
              **{r: DEST_INT if r < FP_REG_BASE else DEST_FP for r in _REGS}}
_LOGICAL_DEST = {None: -1, **{r: r % FP_REG_BASE for r in _REGS}}

#: Every per-instruction column, in the order :meth:`Trace.prefix`
#: slices them.
COLUMNS = (
    "pc", "opcode", "srcs", "dest", "mem_addr", "taken", "producers",
    "real_producers", "is_load", "is_store", "is_mem", "is_branch",
    "mem_word", "dest_kind", "logical_dest",
)


class DynInst:
    """One committed dynamic instruction (a trace record).

    Attributes:
        seq: Dynamic sequence number (0-based).
        pc: Static instruction index.
        opcode: Mnemonic.
        op_class: Execution class (:class:`OpClass`).
        srcs: Flat architectural source registers actually read
            (register 0 excluded -- it is never a true dependence).
        dest: Flat architectural destination register, or None
            (writes to register 0 are discarded and appear as None).
        mem_addr: Effective address for loads/stores, else None.
        is_store / is_load: Memory-class flags.
        is_branch: True for conditional branches.
        is_uncond: True for unconditional jumps (predicted perfectly
            in the baseline model, Table 3).
        taken: Branch/jump outcome.
        next_pc: Static index of the following dynamic instruction.
    """

    __slots__ = (
        "seq", "pc", "opcode", "op_class", "srcs", "dest", "mem_addr",
        "is_store", "is_load", "is_branch", "is_uncond", "taken", "next_pc",
    )

    def __init__(self, seq, pc, opcode, op_class, srcs, dest, mem_addr,
                 is_store, is_load, is_branch, is_uncond, taken, next_pc):
        self.seq = seq
        self.pc = pc
        self.opcode = opcode
        self.op_class = op_class
        self.srcs = srcs
        self.dest = dest
        self.mem_addr = mem_addr
        self.is_store = is_store
        self.is_load = is_load
        self.is_branch = is_branch
        self.is_uncond = is_uncond
        self.taken = taken
        self.next_pc = next_pc

    def __repr__(self) -> str:
        return f"DynInst(#{self.seq} pc={self.pc} {self.opcode})"


def real_producer_links(producers: list[tuple[int, ...]]
                        ) -> list[tuple[int, ...]]:
    """``producers`` with :data:`NO_PRODUCER` entries removed.

    Only the instructions that read a register no earlier instruction
    wrote carry the sentinel, so the list is shared and only those
    entries are rebuilt.
    """
    if NO_PRODUCER not in chain.from_iterable(producers):
        return producers
    real = list(producers)
    for seq in compress(range(len(real)),
                        map(contains, real, repeat(NO_PRODUCER))):
        real[seq] = tuple(p for p in real[seq] if p != NO_PRODUCER)
    return real


class Trace:
    """A committed dynamic instruction stream plus provenance.

    Each column is a sequence of length ``len(trace)`` indexed by
    dynamic sequence number.  A source supplies the first seven; the
    constructor derives the rest.

    Attributes:
        pc: Static instruction index.
        opcode: Mnemonic (the op class and flags follow from it).
        srcs: Flat source registers read, register 0 excluded.
        dest: Flat destination register, or ``None``.
        mem_addr: Byte address touched by a load or store, else ``None``.
        taken: Branch/jump outcome.
        producers: Per-operand producer seqs, one per entry of ``srcs``
            (:data:`NO_PRODUCER` when the value predates the trace;
            duplicates kept, one wakeup per operand).
        real_producers: ``producers`` without the sentinel entries --
            the hot loops iterate these without a per-operand test.
        is_load / is_store / is_mem / is_branch: Op-class membership
            as ``bytearray`` flags (``is_mem`` = load or store).
        mem_word: Word address (``mem_addr >> 2``) of a memory op, else
            ``-1``.
        dest_kind: :data:`DEST_NONE` / :data:`DEST_INT` /
            :data:`DEST_FP` -- which renamer (if any) the destination
            needs.
        logical_dest: Class-local destination index (flat index minus
            :data:`~repro.isa.instructions.FP_REG_BASE` for FP), or
            ``-1`` without a destination.
        final_pc: ``next_pc`` of the last instruction (every other
            instruction's ``next_pc`` is its successor's ``pc``).
        halted: Whether the stream ended at ``halt``.
    """

    def __init__(self, pc: list[int], opcode: list[str],
                 srcs: list[tuple[int, ...]], dest: list[int | None],
                 mem_addr: list[int | None], taken: list[bool],
                 producers: list[tuple[int, ...]], *, final_pc: int,
                 halted: bool, program: Program | None = None,
                 name: str = "") -> None:
        self.pc = pc
        self.opcode = opcode
        self.srcs = srcs
        self.dest = dest
        self.mem_addr = mem_addr
        self.taken = taken
        self.producers = producers
        self.real_producers = real_producer_links(producers)
        ids = bytes(map(_OPCODE_ID.__getitem__, opcode))
        self.is_load = bytearray(ids.translate(_IS_LOAD))
        self.is_store = bytearray(ids.translate(_IS_STORE))
        self.is_mem = bytearray(ids.translate(_IS_MEM))
        self.is_branch = bytearray(ids.translate(_IS_BRANCH))
        self.mem_word = [-1 if addr is None else addr >> 2
                         for addr in mem_addr]
        self.dest_kind = bytearray(map(_DEST_KIND.__getitem__, dest))
        self.logical_dest = list(map(_LOGICAL_DEST.__getitem__, dest))
        self.final_pc = final_pc
        self.halted = halted
        self.program = program
        self.name = name
        self._insts: list[DynInst] | None = None
        self._class_counts: dict[OpClass, int] | None = None

    def prefix(self, n: int) -> Trace:
        """The first ``n`` instructions as a trace of their own.

        It halted only if this trace did and none was cut off.
        """
        trace = object.__new__(Trace)
        for column in COLUMNS:
            setattr(trace, column, getattr(self, column)[:n])
        trace.final_pc = self.pc[n] if n < len(self) else self.final_pc
        trace.halted = self.halted and n >= len(self)
        trace.program = self.program
        trace.name = self.name
        trace._insts = None
        trace._class_counts = None
        return trace

    @property
    def next_pc(self) -> list[int]:
        """Static index of each instruction's successor."""
        return self.pc[1:] + [self.final_pc] if self.pc else []

    @property
    def insts(self) -> list[DynInst]:
        """The :class:`DynInst` view of the columns, built once."""
        if self._insts is None:
            info = [OPCODES[op] for op in self.opcode]
            self._insts = [
                DynInst(seq, pc, op, i.op_class, srcs, dest, addr,
                        i.writes_memory, i.reads_memory, i.is_conditional,
                        i.op_class is OpClass.JUMP, taken, next_pc)
                for seq, (pc, op, i, srcs, dest, addr, taken, next_pc)
                in enumerate(zip(self.pc, self.opcode, info, self.srcs,
                                 self.dest, self.mem_addr, self.taken,
                                 self.next_pc))
            ]
        return self._insts

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self):
        return iter(self.insts)

    def __getitem__(self, index):
        return self.insts[index]

    def __repr__(self) -> str:
        return (f"Trace({self.name!r}, {len(self)} insts, "
                f"halted={self.halted})")

    def class_counts(self) -> dict[OpClass, int]:
        """Dynamic instruction count per execution class."""
        if self._class_counts is None:
            counts: dict[OpClass, int] = {}
            for op, count in Counter(self.opcode).items():
                op_class = OPCODES[op].op_class
                counts[op_class] = counts.get(op_class, 0) + count
            self._class_counts = counts
        return dict(self._class_counts)

    def branch_fraction(self) -> float:
        """Fraction of dynamic instructions that are conditional branches."""
        return sum(self.is_branch) / len(self) if self.pc else 0.0

    def load_fraction(self) -> float:
        """Fraction of dynamic instructions that are loads."""
        return sum(self.is_load) / len(self) if self.pc else 0.0
