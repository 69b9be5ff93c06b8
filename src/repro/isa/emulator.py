"""Functional emulator: executes a program into a columnar trace.

The timing simulator in :mod:`repro.uarch` is trace-driven, like the
paper's modified SimpleScalar: a functional front end executes the
program and produces the committed dynamic instruction stream, and the
timing model replays that stream through the pipeline (branch
mispredictions stall fetch for the refill latency rather than executing
wrong-path instructions).

The emulator writes that stream as a :class:`~repro.isa.trace.Trace`'s
columns, never as per-instruction records.  Each static instruction is
predecoded into a step handler that executes it, appends its producer
links (it keeps a last-writer table over the 64 flat registers) and
notes the only other dynamic facts, a memory address or a taken
branch.  The run loop itself records just the pc sequence; every
static field (opcode, sources, destination, class flags) is gathered
from per-pc tables afterwards with C-level ``map``.

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

import functools
from typing import Callable

from repro.isa.assembler import Program
from repro.isa.instructions import FP_REG_BASE, OPCODES, Instruction, OpClass
from repro.isa.trace import NO_PRODUCER, Trace


class EmulationError(RuntimeError):
    """Raised for runtime errors: bad PC, bad jump target, etc."""


# ---- predecoding -----------------------------------------------------------
#
# Each static instruction is decoded once, on an emulator's first run,
# into a *step handler*: a closure that executes the instruction,
# records its producer links and dynamic facts, and returns the next
# pc (or None for ``halt``).  Handlers are built from source templates
# -- one per opcode, register-file and operand shape -- that are
# compiled on first use and then shared by every program in the
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
#: ``get``; the last-writer table over the flat registers, the append
#: of the producer-link column, the memory address of each memory op
#: by seq and the ``add`` of the set of taken seqs; then one
#: instruction's pc, fall-through pc, flat (r0-filtered) sources and
#: destination, operand indices within their files, immediate,
#: destination index, target and the text-segment length.
_FACTORY_PARAMS = ("ir, fr, mem, get, W, LINK, ADDR, TAKEN, PC, NEXT, "
                   "S0, S1, DF, A, B, IMM, D, TARGET, N")

#: Handler factories, keyed by instruction shape (see :func:`_shape`);
#: filled on first use.
_FACTORIES: dict[tuple, Callable] = {}

#: Producer-link statements by the number of (r0-filtered) sources.
_LINKS = ("LINK(())", "LINK((W[S0],))", "LINK((W[S0], W[S1]))")


def _flat(inst: Instruction) -> tuple[tuple[int, ...], int | None]:
    """The trace's ``srcs`` and ``dest`` of a static instruction:
    register 0 is never a dependence, and its writes vanish."""
    dest = inst.dest
    if dest == 0 or not OPCODES[inst.opcode].writes_dest:
        dest = None
    return tuple(reg for reg in inst.srcs if reg != 0), dest


def _shape(inst: Instruction, srcs: tuple[int, ...],
           dest: int | None) -> tuple:
    """What a handler's source depends on: the opcode, the register
    file of each source, the destination's file (``"zero"`` for
    register 0, whose writes vanish), and how many producer links
    (``srcs``) and last-writer updates (``dest``, see :func:`_flat`)
    the trace records."""
    dest_file = None
    if inst.dest is not None:
        dest_file = ("fp" if inst.dest >= FP_REG_BASE
                     else "int" if inst.dest else "zero")
    return (inst.opcode, tuple(reg >= FP_REG_BASE for reg in inst.srcs),
            dest_file, len(srcs), dest is not None)


def _handler_source(op: str, fp_srcs: tuple[bool, ...], dest: str | None,
                    links: int, writes: bool) -> str:
    """Body of the step handler for one instruction shape."""
    if op == "halt":
        return "return None"
    cls = OPCODES[op].op_class
    files = ["fr" if fp else "ir" for fp in fp_srcs]
    operands = dict(zip("ab", (f"{f}[{n}]" for f, n in zip(files, "AB"))))
    body: list[str] = []
    next_pc = "NEXT"
    if cls is OpClass.LOAD:
        body.append("addr = ({a} + IMM) & 0xFFFFFFFF".format(**operands))
        body.append("x = " + _READ[_LOAD_SIZES[op]])
        body.append("ADDR[seq] = addr")
    elif cls is OpClass.STORE:
        body.append("addr = ({b} + IMM) & 0xFFFFFFFF".format(**operands))
        value, size = _STORES[op]
        body.append("x = " + value.format(**operands))
        body.append("mem[addr] = x & 0xFF")
        body.extend(f"mem[addr + {i}] = x >> {8 * i} & 0xFF"
                    for i in range(1, size))
        body.append("ADDR[seq] = addr")
    elif cls is OpClass.JUMP:
        body.append("TAKEN(seq)")
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
    # Producer links read the table before this instruction's own write.
    body.append(_LINKS[links])
    if writes:
        body.append("W[DF] = seq")
    if cls is OpClass.BRANCH:
        body.append("if " + _CONDITIONS[op].format(**operands) + ":")
        body.append("    TAKEN(seq)")
        body.append("    return TARGET")
    body.append(f"return {next_pc}")
    return "\n".join(body)


def _factory(shape: tuple) -> Callable:
    """The (memoized) factory binding one shape's handler to operands."""
    factory = _FACTORIES.get(shape)
    if factory is None:
        body = "\n".join("        " + line
                         for line in _handler_source(*shape).split("\n"))
        text = (f"def factory({_FACTORY_PARAMS}):\n"
                f"    def step(seq):\n{body}\n"
                f"    return step\n")
        namespace = {"EmulationError": EmulationError}
        exec(compile(text, "<emulator handler>", "exec"), namespace)
        factory = _FACTORIES[shape] = namespace["factory"]
    return factory


@functools.lru_cache(maxsize=64)
def _predecode(instructions: tuple[Instruction, ...]) -> tuple:
    """What decoding a text segment needs besides the machine state:
    per static instruction its handler factory and the operands it
    binds, then the per-pc opcodes, ``srcs`` and ``dest``.  Memoized by
    content, so each program is analysed once per process however many
    emulators run it.

    Raises:
        EmulationError: for a negative branch/jump target.
    """
    count = len(instructions)
    steps, srcs_of, dest_of = [], [], []
    for pc, inst in enumerate(instructions):
        if inst.target is not None and inst.target < 0:
            raise EmulationError(
                f"target {inst.target} outside text segment (pc={pc})")
        srcs, dest = _flat(inst)
        srcs_of.append(srcs)
        dest_of.append(dest)
        # Register operands index their own file (int or fp).
        a, b = (*(reg % FP_REG_BASE for reg in inst.srcs), None, None)[:2]
        s0, s1 = (*srcs, None, None)[:2]
        steps.append((_factory(_shape(inst, srcs, dest)), (
            pc, pc + 1, s0, s1, dest, a, b, inst.imm,
            None if inst.dest is None else inst.dest % FP_REG_BASE,
            inst.target, count,
        )))
    return steps, [inst.opcode for inst in instructions], srcs_of, dest_of


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
        self._decoded: tuple | None = None
        # What the handlers record during one run, emptied after it:
        # each flat register's last writer (by seq), the producer-link
        # column, the memory addresses by seq and the taken seqs.
        self._writers = [NO_PRODUCER] * (2 * FP_REG_BASE)
        self._links: list[tuple[int, ...]] = []
        self._addrs: dict[int, int] = {}
        self._taken: set[int] = set()

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

    def _decode(self) -> tuple[list, list, list, list]:
        """One step handler per static instruction, indexed by pc, and
        the per-pc opcodes, ``srcs`` and ``dest`` the trace's static
        columns are gathered from.

        Raises:
            EmulationError: for a negative branch/jump target (a target
                past the end faults when it is reached, as falling off
                the end does).
        """
        steps, opcode_of, srcs_of, dest_of = _predecode(
            tuple(self.program.instructions))
        memory = self.memory
        state = (self.int_regs, self.fp_regs, memory, memory.get,
                 self._writers, self._links.append, self._addrs,
                 self._taken.add)
        handlers = [factory(*state, *operands) for factory, operands in steps]
        return handlers, opcode_of, srcs_of, dest_of

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
        if self.halted or max_instructions == 0:
            return Trace([], [], [], [], [], [], [], final_pc=self.pc,
                         halted=self.halted, program=self.program)
        if self._decoded is None:
            self._decoded = self._decode()
        handlers, opcode_of, srcs_of, dest_of = self._decoded
        pcs: list[int] = []
        append = pcs.append
        pc = self.pc
        seq = 0
        links, addrs, taken = self._links, self._addrs, self._taken
        try:
            if pc < 0:
                raise IndexError
            while seq < max_instructions:
                next_pc = handlers[pc](seq)
                if next_pc is None:  # halt: counted, not committed
                    self.halted = True
                    self.executed += 1
                    break
                append(pc)
                pc = next_pc
                seq += 1
            producers = links[:]
            mem_addr = list(map(addrs.get, range(seq)))
            outcome = list(map(taken.__contains__, range(seq)))
        except IndexError:
            raise EmulationError(f"PC {pc} outside text segment") from None
        finally:
            self.pc = pc
            self.executed += seq
            self._writers[:] = [NO_PRODUCER] * len(self._writers)
            links.clear()
            addrs.clear()
            taken.clear()
        return Trace(
            pcs, list(map(opcode_of.__getitem__, pcs)),
            list(map(srcs_of.__getitem__, pcs)),
            list(map(dest_of.__getitem__, pcs)),
            mem_addr, outcome, producers,
            final_pc=pc, halted=self.halted, program=self.program,
        )


def run_to_trace(program: Program, max_instructions: int = 1_000_000, name: str = "") -> Trace:
    """Assemble-and-run convenience: execute a program to a trace."""
    trace = Emulator(program).run(max_instructions)
    trace.name = name
    return trace
