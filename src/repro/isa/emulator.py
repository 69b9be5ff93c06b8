"""Functional emulator and dynamic-trace generation.

The timing simulator in :mod:`repro.uarch` is trace-driven, like the
paper's modified SimpleScalar: a functional front end executes the
program and produces the committed dynamic instruction stream, and the
timing model replays that stream through the pipeline (branch
mispredictions stall fetch for the refill latency rather than executing
wrong-path instructions).

Semantics notes:

* Integer registers hold 32-bit values (register 0 reads as zero and
  ignores writes); floating-point registers hold Python floats.
* Jump-register targets and link values are *instruction indices* --
  the text segment is indexed, not byte-addressed.  Dispatch tables in
  ``.data`` therefore store instruction indices of labels.
* Division by zero yields zero (the kernels never rely on trapping).
* Uninitialised memory reads as zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.isa.assembler import Program
from repro.isa.instructions import FP_REG_BASE, OPCODES, Instruction, OpClass

class EmulationError(RuntimeError):
    """Raised for runtime errors: bad PC, bad jump target, etc."""


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


@dataclass
class Trace:
    """A committed dynamic instruction stream plus provenance."""

    insts: list[DynInst]
    halted: bool
    program: Program | None = None
    name: str = ""
    _class_counts: dict[OpClass, int] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.insts)

    def __iter__(self):
        return iter(self.insts)

    def __getitem__(self, index):
        return self.insts[index]

    def class_counts(self) -> dict[OpClass, int]:
        """Dynamic instruction count per execution class."""
        if self._class_counts is None:
            counts: dict[OpClass, int] = {}
            for inst in self.insts:
                counts[inst.op_class] = counts.get(inst.op_class, 0) + 1
            self._class_counts = counts
        return dict(self._class_counts)

    def branch_fraction(self) -> float:
        """Fraction of dynamic instructions that are conditional branches."""
        if not self.insts:
            return 0.0
        return sum(1 for i in self.insts if i.is_branch) / len(self.insts)

    def load_fraction(self) -> float:
        """Fraction of dynamic instructions that are loads."""
        if not self.insts:
            return 0.0
        return sum(1 for i in self.insts if i.is_load) / len(self.insts)


# ---- predecoding -----------------------------------------------------------
#
# Each static instruction is decoded once, on an emulator's first run,
# into a *step handler*: a closure that executes the instruction and
# returns its DynInst (or None for ``halt``).  Handlers are built from
# source templates -- one per opcode and register-file shape -- that
# are compiled on first use and then shared by every program in the
# process, so decoding a program costs one closure per instruction.

#: Value written by each register-writing opcode, over its register
#: operands ``{a}``/``{b}``, its immediate ``IMM`` and, for loads, the
#: temporary ``x`` the load's read leaves (see :data:`_READ`).
_VALUES = {
    "addu": "{a} + {b}", "subu": "{a} - {b}", "and": "{a} & {b}",
    "or": "{a} | {b}", "xor": "{a} ^ {b}", "nor": "~({a} | {b})",
    "slt": "int({a} < {b})",
    "sltu": "int(({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF))",
    "sllv": "{a} << ({b} & 31)", "srlv": "({a} & 0xFFFFFFFF) >> ({b} & 31)",
    "srav": "{a} >> ({b} & 31)",
    "addiu": "{a} + IMM", "andi": "{a} & IMM", "ori": "{a} | IMM",
    "xori": "{a} ^ IMM", "slti": "int({a} < IMM)",
    "sltiu": "int(({a} & 0xFFFFFFFF) < (IMM & 0xFFFFFFFF))",
    "sll": "{a} << (IMM & 31)", "srl": "({a} & 0xFFFFFFFF) >> (IMM & 31)",
    "sra": "{a} >> (IMM & 31)", "lui": "IMM << 16", "li": "IMM",
    "move": "{a}",
    "mult": "{a} * {b}",
    "div": "0 if {b} == 0 else int({a} / {b})",  # truncate toward zero
    "rem": "0 if {b} == 0 else {a} - int({a} / {b}) * {b}",
    "add.s": "{a} + {b}", "sub.s": "{a} - {b}", "mul.s": "{a} * {b}",
    "div.s": "0.0 if {b} == 0 else {a} / {b}",
    "mov.s": "float({a})", "cvt.s.w": "float({a})", "cvt.w.s": "int({a})",
    "lw": "(x + 0x80000000 & 0xFFFFFFFF) - 0x80000000",
    "lb": "x - ((x & 0x80) << 1)", "lbu": "x",
    "lh": "x - ((x & 0x8000) << 1)", "lhu": "x",
    # l.s: fp bits stored as a scaled integer, for simplicity
    "l.s": "(x - ((x & 0x80000000) << 1)) / 65536.0",
}

#: Little-endian reads of 1, 2 and 4 bytes at ``addr``; missing bytes
#: read as 0.
_READ = {
    1: "get(addr, 0)",
    2: "get(addr, 0) | get(addr + 1, 0) << 8",
    4: "get(addr, 0) | get(addr + 1, 0) << 8 | get(addr + 2, 0) << 16"
       " | get(addr + 3, 0) << 24",
}
_LOAD_SIZES = {"lw": 4, "lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "l.s": 4}

#: Stores: (value masked to the store width, bytes written).
_STORES = {
    "sw": ("{a} & 0xFFFFFFFF", 4),
    "sh": ("{a} & 0xFFFF", 2),
    "sb": ("{a} & 0xFF", 1),
    "s.s": ("int({a} * 65536.0) & 0xFFFFFFFF", 4),
}

#: Taken condition of each conditional branch.
_CONDITIONS = {
    "beq": "{a} == {b}", "bne": "{a} != {b}", "blez": "{a} <= 0",
    "bgtz": "{a} > 0", "bltz": "{a} < 0", "bgez": "{a} >= 0",
    "blt": "{a} < {b}", "bge": "{a} >= {b}", "ble": "{a} <= {b}",
    "bgt": "{a} > {b}",
}

#: Opcodes whose value may be a float even when every source is an
#: integer register (an integer destination then truncates it).
_FLOAT_VALUES = frozenset({"div.s", "mov.s", "cvt.s.w", "l.s"})

#: An integer wrapped to signed 32 bits (integer register writes).
_WRAP = "({} + 0x80000000 & 0xFFFFFFFF) - 0x80000000"

#: What a handler closes over: the register files, memory and its
#: ``get``, then one instruction's pc, fall-through pc, op class, trace
#: ``srcs`` and ``dest``, operand indices within their files, immediate,
#: destination index, target and the text-segment length.
_FACTORY_PARAMS = ("ir, fr, mem, get, PC, NEXT, CLS, SRCS, DEST, "
                   "A, B, IMM, D, TARGET, N")

#: Handler factories, keyed by instruction shape (see :func:`_shape`);
#: filled on first use.
_FACTORIES: dict[tuple, Callable] = {}


def _shape(inst: Instruction) -> tuple:
    """What a handler's source depends on: the opcode, the register
    file of each source, and the destination's file (``"zero"`` for
    register 0, whose writes vanish)."""
    dest = inst.dest
    dest_file = None
    if dest is not None:
        dest_file = "fp" if dest >= FP_REG_BASE else "int" if dest else "zero"
    return (inst.opcode, tuple(reg >= FP_REG_BASE for reg in inst.srcs),
            dest_file)


def _handler_source(op: str, fp_srcs: tuple[bool, ...],
                    dest: str | None) -> str:
    """Body of the step handler for one instruction shape."""
    info = OPCODES[op]
    cls = info.op_class
    files = ["fr" if fp else "ir" for fp in fp_srcs]
    operands = dict(zip("ab", (f"{f}[{n}]" for f, n in zip(files, "AB"))))
    body: list[str] = []
    mem_addr, taken, next_pc = "None", "False", "NEXT"
    if cls is OpClass.LOAD:
        body.append("addr = ({a} + IMM) & 0xFFFFFFFF".format(**operands))
        body.append("x = " + _READ[_LOAD_SIZES[op]])
        mem_addr = "addr"
    elif cls is OpClass.STORE:
        body.append("addr = ({b} + IMM) & 0xFFFFFFFF".format(**operands))
        value, size = _STORES[op]
        body.append("x = " + value.format(**operands))
        body.append("mem[addr] = x & 0xFF")
        body.extend(f"mem[addr + {i}] = x >> {8 * i} & 0xFF"
                    for i in range(1, size))
        mem_addr = "addr"
    elif cls is OpClass.BRANCH:
        body.append("if " + _CONDITIONS[op].format(**operands) + ":")
        body.append("    " + _record(op, info, "None", "True", "TARGET"))
    elif cls is OpClass.JUMP:
        taken = "True"
        if op in ("jr", "jalr"):
            body.append("t = " + operands["a"])
            next_pc = "t"
        if op in ("jal", "jalr"):
            body.append("ir[31] = NEXT")
        if op in ("jr", "jalr"):
            body.append("if not 0 <= t < N:")
            body.append("    raise EmulationError(f'jump register target "
                        "{t} outside text segment (pc={PC})')")
        else:
            next_pc = "TARGET"
    elif op == "halt":
        return "return None"
    if op in _VALUES:
        value = _VALUES[op].format(**operands)
        if dest == "fp":
            body.append(f"fr[D] = float({value})")
        elif dest == "zero":
            body.append(value)  # evaluated, then discarded like the write
        elif "fr" in files or op in _FLOAT_VALUES:
            body.append("ir[D] = " + _WRAP.format(f"int({value})"))
        else:
            body.append("ir[D] = " + _WRAP.format(f"({value})"))
    body.append(_record(op, info, mem_addr, taken, next_pc))
    return "\n".join(body)


def _record(op: str, info, mem_addr: str, taken: str, next_pc: str) -> str:
    """The ``return DynInst(...)`` statement of a handler."""
    return (f"return DynInst(seq, PC, {op!r}, CLS, SRCS, DEST, {mem_addr}, "
            f"{info.writes_memory}, {info.reads_memory}, "
            f"{info.is_conditional}, {info.op_class is OpClass.JUMP}, "
            f"{taken}, {next_pc})")


def _factory(shape: tuple) -> Callable:
    """The (memoized) factory binding one shape's handler to operands."""
    factory = _FACTORIES.get(shape)
    if factory is None:
        body = "\n".join("        " + line
                         for line in _handler_source(*shape).split("\n"))
        text = (f"def factory({_FACTORY_PARAMS}):\n"
                f"    def step(seq):\n{body}\n"
                f"    return step\n")
        namespace = {"DynInst": DynInst, "EmulationError": EmulationError}
        exec(compile(text, "<emulator handler>", "exec"), namespace)
        factory = _FACTORIES[shape] = namespace["factory"]
    return factory


class Emulator:
    """Functional executor for an assembled :class:`Program`.

    The architectural state -- ``int_regs``, ``fp_regs``, ``memory``,
    ``pc``, ``halted`` and ``executed`` (instructions run, ``halt``
    included) -- is public.  The step handlers bound on the first
    :meth:`run` mutate the register lists and the memory dict in place,
    so those objects are never replaced.
    """

    def __init__(self, program: Program):
        self.program = program
        self.int_regs = [0] * FP_REG_BASE
        self.fp_regs = [0.0] * FP_REG_BASE
        self.memory: dict[int, int] = dict(program.data_image)
        self.pc = program.entry_point
        self.halted = False
        self.executed = 0
        self._handlers: list | None = None

    def load(self, address: int, size: int, signed: bool) -> int:
        """Read ``size`` little-endian bytes; missing bytes read as 0."""
        value = 0
        for i in range(size):
            value |= self.memory.get(address + i, 0) << (8 * i)
        if signed:
            sign_bit = 1 << (8 * size - 1)
            if value & sign_bit:
                value -= 1 << (8 * size)
        return value

    def _decode(self) -> list:
        """One step handler per static instruction, indexed by pc.

        Raises:
            EmulationError: for a negative branch/jump target (a target
                past the end faults when it is reached, as falling off
                the end does).
        """
        instructions = self.program.instructions
        count = len(instructions)
        memory = self.memory
        handlers = []
        for pc, inst in enumerate(instructions):
            if inst.target is not None and inst.target < 0:
                raise EmulationError(
                    f"target {inst.target} outside text segment (pc={pc})")
            info = OPCODES[inst.opcode]
            srcs, dest = inst.srcs, inst.dest
            # Register operands index their own file (int or fp).
            a, b = (*(reg % FP_REG_BASE for reg in srcs), None, None)[:2]
            handlers.append(_factory(_shape(inst))(
                self.int_regs, self.fp_regs, memory, memory.get,
                pc, pc + 1, info.op_class,
                tuple(reg for reg in srcs if reg != 0),
                dest if dest != 0 and info.writes_dest else None,
                a, b, inst.imm, None if dest is None else dest % FP_REG_BASE,
                inst.target, count,
            ))
        return handlers

    def run(self, max_instructions: int = 1_000_000) -> Trace:
        """Execute until ``halt`` or the instruction cap.

        Args:
            max_instructions: Upper bound on executed instructions (the
                paper capped benchmark runs similarly).

        Returns:
            The committed dynamic :class:`Trace`.

        Raises:
            EmulationError: if the PC runs off the text segment or a
                register-indirect jump targets a bad index.
        """
        if max_instructions < 0:
            raise ValueError(f"max_instructions must be >= 0, got {max_instructions}")
        insts: list[DynInst] = []
        if self.halted or max_instructions == 0:
            return Trace(insts=insts, halted=self.halted, program=self.program)
        if self._handlers is None:
            self._handlers = self._decode()
        handlers = self._handlers
        append = insts.append
        pc = self.pc
        seq = 0
        try:
            if pc < 0:
                raise IndexError
            while seq < max_instructions:
                record = handlers[pc](seq)
                if record is None:  # halt: counted, not committed
                    self.halted = True
                    self.executed += 1
                    break
                append(record)
                pc = record.next_pc
                seq += 1
        except IndexError:
            raise EmulationError(f"PC {pc} outside text segment") from None
        finally:
            self.pc = pc
            self.executed += seq
        return Trace(insts=insts, halted=self.halted, program=self.program)


def run_to_trace(program: Program, max_instructions: int = 1_000_000, name: str = "") -> Trace:
    """Assemble-and-run convenience: execute a program to a trace."""
    trace = Emulator(program).run(max_instructions)
    trace.name = name
    return trace
