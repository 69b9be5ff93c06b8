"""Architectural oracle and invariant checks for differential fuzzing.

Three independent implementations of the machine exist in this repo:
the ISA emulator (:mod:`repro.isa.emulator`), the optimized timing
pipeline, and the frozen reference pipeline.  This module adds a
fourth -- a deliberately *re-implemented* shadow interpreter -- and
the comparison functions the fuzzer applies to every case:

* :func:`compare_architectural` -- final register file, memory image,
  and committed-instruction stream: emulator vs shadow interpreter.
* :func:`compare_stats` -- byte-identical ``SimStats.to_dict()``
  between the optimized and reference pipelines.
* :func:`check_timing_invariants` -- per-instruction lifecycle
  ordering, operand arrival, load-after-store order, width, unit,
  port and occupancy bounds, and the stall-cycle partition.

The shadow interpreter is written in a different style on purpose
(unsigned 32-bit register file with a signed *view*, opcode dispatch
table) so a semantics bug in the emulator is unlikely to be faithfully
duplicated here.  Every check returns a list of human-readable failure
strings -- empty means the case passed.
"""

from __future__ import annotations

from repro.isa.assembler import Program
from repro.isa.emulator import Emulator
from repro.isa.instructions import FP_REG_BASE, OpClass
from repro.isa.trace import Trace
from repro.uarch.depend import NO_PRODUCER, dependence_info

_M32 = 0xFFFFFFFF


def _signed(value: int) -> int:
    """Signed view of an unsigned 32-bit value."""
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class ShadowState:
    """Architectural state of the shadow interpreter.

    Integer registers are kept *unsigned* 32-bit (the emulator keeps
    them signed) -- the different representation is part of the
    independence argument.
    """

    def __init__(self, program: Program):
        self.program = program
        self.iregs = [0] * FP_REG_BASE
        self.fregs = [0.0] * FP_REG_BASE
        self.memory: dict[int, int] = dict(program.data_image)
        self.pc = program.entry_point
        self.halted = False

    # register access --------------------------------------------------

    def get(self, index: int) -> int:
        """Unsigned value of an integer register (r0 reads zero)."""
        return self.iregs[index] if index else 0

    def sget(self, index: int) -> int:
        """Signed value of an integer register."""
        return _signed(self.get(index))

    def put(self, index: int, value: int) -> None:
        """Write an integer register (r0 writes vanish)."""
        if index:
            self.iregs[index] = value & _M32

    def fget(self, flat: int) -> float:
        """Read a flat fp register index."""
        return self.fregs[flat - FP_REG_BASE]

    def fput(self, flat: int, value: float) -> None:
        """Write a flat fp register index."""
        self.fregs[flat - FP_REG_BASE] = float(value)

    # memory access ----------------------------------------------------

    def read_mem(self, address: int, size: int) -> int:
        """Unsigned little-endian read; absent bytes are zero."""
        value = 0
        for i in range(size - 1, -1, -1):
            value = (value << 8) | self.memory.get(address + i, 0)
        return value

    def write_mem(self, address: int, value: int, size: int) -> None:
        """Little-endian write of the low ``size`` bytes."""
        for i in range(size):
            self.memory[address + i] = (value >> (8 * i)) & 0xFF


def _trunc_div(a: int, b: int) -> int:
    """C-style truncating division; division by zero yields zero."""
    if b == 0:
        return 0
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def shadow_run(
    program: Program, max_instructions: int = 1_000_000
) -> tuple[list[tuple], ShadowState]:
    """Execute ``program`` on the shadow interpreter.

    Returns:
        ``(records, state)`` where each record is the committed tuple
        ``(pc, opcode, taken, next_pc, mem_addr)`` -- the fields the
        emulator's :class:`~repro.isa.trace.DynInst` must agree on
        -- and ``state`` is the final architectural state.
    """
    s = ShadowState(program)
    text = program.instructions
    records: list[tuple] = []
    while not s.halted and len(records) < max_instructions:
        if not 0 <= s.pc < len(text):
            raise IndexError(f"shadow PC {s.pc} outside text segment")
        inst = text[s.pc]
        op = inst.opcode
        pc = s.pc
        next_pc = pc + 1
        taken = False
        mem_addr = None
        cls = inst.op_class

        if cls is OpClass.IALU:
            _SHADOW_IALU[op](s, inst)
        elif cls is OpClass.IMUL:
            a, b = s.sget(inst.srcs[0]), s.sget(inst.srcs[1])
            if op == "mult":
                s.put(inst.dest, a * b)
            elif op == "div":
                s.put(inst.dest, _trunc_div(a, b))
            else:  # rem: sign follows the dividend; rem-by-zero is zero
                s.put(inst.dest,
                      0 if b == 0 else a - _trunc_div(a, b) * b)
        elif cls is OpClass.LOAD:
            mem_addr = (s.get(inst.srcs[0]) + inst.imm) & _M32
            _shadow_load(s, inst, op, mem_addr)
        elif cls is OpClass.STORE:
            mem_addr = (s.get(inst.srcs[1]) + inst.imm) & _M32
            _shadow_store(s, inst, op, mem_addr)
        elif cls is OpClass.BRANCH:
            taken = _SHADOW_BRANCH[op](s, inst)
            if taken:
                next_pc = inst.target
        elif cls is OpClass.JUMP:
            taken = True
            if op in ("j", "b", "jal"):
                if op == "jal":
                    s.put(31, pc + 1)
                next_pc = inst.target
            else:
                target = s.sget(inst.srcs[0])
                if op == "jalr":
                    s.put(31, pc + 1)
                if not 0 <= target < len(text):
                    raise IndexError(f"shadow jr target {target} (pc={pc})")
                next_pc = target
        elif cls is OpClass.FPU:
            _shadow_fpu(s, inst, op)
        else:  # NOP / HALT
            if op == "halt":
                s.halted = True
                break

        s.pc = next_pc
        records.append((pc, op, taken, next_pc, mem_addr))
    return records, s


_SHADOW_IALU = {
    "addu": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) + s.get(i.srcs[1])),
    "subu": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) - s.get(i.srcs[1])),
    "and": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) & s.get(i.srcs[1])),
    "or": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) | s.get(i.srcs[1])),
    "xor": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) ^ s.get(i.srcs[1])),
    "nor": lambda s, i: s.put(i.dest, ~(s.get(i.srcs[0]) | s.get(i.srcs[1]))),
    "slt": lambda s, i: s.put(i.dest, int(s.sget(i.srcs[0]) < s.sget(i.srcs[1]))),
    "sltu": lambda s, i: s.put(i.dest, int(s.get(i.srcs[0]) < s.get(i.srcs[1]))),
    "sllv": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) << (s.get(i.srcs[1]) & 31)),
    "srlv": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) >> (s.get(i.srcs[1]) & 31)),
    "srav": lambda s, i: s.put(i.dest, s.sget(i.srcs[0]) >> (s.get(i.srcs[1]) & 31)),
    "addiu": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) + i.imm),
    "andi": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) & (i.imm & _M32)),
    "ori": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) | (i.imm & _M32)),
    "xori": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) ^ (i.imm & _M32)),
    "slti": lambda s, i: s.put(i.dest, int(s.sget(i.srcs[0]) < i.imm)),
    "sltiu": lambda s, i: s.put(i.dest, int(s.get(i.srcs[0]) < (i.imm & _M32))),
    "sll": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) << (i.imm & 31)),
    "srl": lambda s, i: s.put(i.dest, s.get(i.srcs[0]) >> (i.imm & 31)),
    "sra": lambda s, i: s.put(i.dest, s.sget(i.srcs[0]) >> (i.imm & 31)),
    "lui": lambda s, i: s.put(i.dest, i.imm << 16),
    "li": lambda s, i: s.put(i.dest, i.imm),
    "move": lambda s, i: s.put(i.dest, s.get(i.srcs[0])),
}

_SHADOW_BRANCH = {
    "beq": lambda s, i: s.get(i.srcs[0]) == s.get(i.srcs[1]),
    "bne": lambda s, i: s.get(i.srcs[0]) != s.get(i.srcs[1]),
    "blez": lambda s, i: s.sget(i.srcs[0]) <= 0,
    "bgtz": lambda s, i: s.sget(i.srcs[0]) > 0,
    "bltz": lambda s, i: s.sget(i.srcs[0]) < 0,
    "bgez": lambda s, i: s.sget(i.srcs[0]) >= 0,
    "blt": lambda s, i: s.sget(i.srcs[0]) < s.sget(i.srcs[1]),
    "bge": lambda s, i: s.sget(i.srcs[0]) >= s.sget(i.srcs[1]),
    "ble": lambda s, i: s.sget(i.srcs[0]) <= s.sget(i.srcs[1]),
    "bgt": lambda s, i: s.sget(i.srcs[0]) > s.sget(i.srcs[1]),
}


def _shadow_load(s: ShadowState, inst, op: str, address: int) -> None:
    if op == "lw":
        s.put(inst.dest, s.read_mem(address, 4))
    elif op == "lbu":
        s.put(inst.dest, s.read_mem(address, 1))
    elif op == "lb":
        s.put(inst.dest, (s.read_mem(address, 1) ^ 0x80) - 0x80)
    elif op == "lhu":
        s.put(inst.dest, s.read_mem(address, 2))
    elif op == "lh":
        s.put(inst.dest, (s.read_mem(address, 2) ^ 0x8000) - 0x8000)
    else:  # l.s: 16.16 fixed point, matching the emulator's convention
        raw = (s.read_mem(address, 4) ^ 0x8000_0000) - 0x8000_0000
        s.fput(inst.dest, raw / 65536.0)


def _shadow_store(s: ShadowState, inst, op: str, address: int) -> None:
    source = inst.srcs[0]
    if op == "sw":
        s.write_mem(address, s.get(source), 4)
    elif op == "sb":
        s.write_mem(address, s.get(source), 1)
    elif op == "sh":
        s.write_mem(address, s.get(source), 2)
    else:  # s.s
        s.write_mem(address, int(s.fget(source) * 65536.0) & _M32, 4)


def _shadow_fpu(s: ShadowState, inst, op: str) -> None:
    if op == "add.s":
        s.fput(inst.dest, s.fget(inst.srcs[0]) + s.fget(inst.srcs[1]))
    elif op == "sub.s":
        s.fput(inst.dest, s.fget(inst.srcs[0]) - s.fget(inst.srcs[1]))
    elif op == "mul.s":
        s.fput(inst.dest, s.fget(inst.srcs[0]) * s.fget(inst.srcs[1]))
    elif op == "div.s":
        divisor = s.fget(inst.srcs[1])
        s.fput(inst.dest, 0.0 if divisor == 0 else s.fget(inst.srcs[0]) / divisor)
    elif op == "mov.s":
        s.fput(inst.dest, s.fget(inst.srcs[0]))
    elif op == "cvt.s.w":
        s.fput(inst.dest, float(s.sget(inst.srcs[0])))
    else:  # cvt.w.s -- truncating float-to-int into an integer register
        s.put(inst.dest, int(s.fget(inst.srcs[0])))


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------


def _nonzero_bytes(memory: dict[int, int]) -> dict[int, int]:
    """Memory image normalised to its non-zero bytes (absent == 0)."""
    return {addr: byte for addr, byte in memory.items() if byte}


def compare_architectural(
    emulator: Emulator, trace: Trace, max_instructions: int = 1_000_000
) -> list[str]:
    """Emulator vs shadow interpreter: full architectural equality.

    Args:
        emulator: A *finished* emulator (its :meth:`run` produced
            ``trace``).
        trace: The committed stream the emulator reported.
        max_instructions: The same cap the emulator ran with.

    Returns:
        Failure descriptions; empty when the oracle agrees.
    """
    failures: list[str] = []
    try:
        records, shadow = shadow_run(emulator.program, max_instructions)
    except IndexError as error:
        return [f"shadow interpreter crashed: {error}"]

    if shadow.halted != emulator.halted:
        failures.append(
            f"halt disagreement: emulator halted={emulator.halted}, "
            f"shadow halted={shadow.halted}"
        )
    if len(records) != len(trace):
        failures.append(
            f"committed-stream length: emulator {len(trace)}, "
            f"shadow {len(records)}"
        )
    for inst, record in zip(trace, records):
        mine = (inst.pc, inst.opcode, inst.taken, inst.next_pc, inst.mem_addr)
        if mine != record:
            failures.append(
                f"committed stream diverges at seq {inst.seq}: "
                f"emulator {mine} vs shadow {record}"
            )
            break
    for index in range(1, FP_REG_BASE):
        emulated = emulator.int_regs[index] & _M32
        if emulated != shadow.iregs[index]:
            failures.append(
                f"int register r{index}: emulator {emulated:#x}, "
                f"shadow {shadow.iregs[index]:#x}"
            )
    for index in range(FP_REG_BASE):
        if emulator.fp_regs[index] != shadow.fregs[index]:
            failures.append(
                f"fp register f{index}: emulator {emulator.fp_regs[index]!r}, "
                f"shadow {shadow.fregs[index]!r}"
            )
    emulator_mem = _nonzero_bytes(emulator.memory)
    shadow_mem = _nonzero_bytes(shadow.memory)
    if emulator_mem != shadow_mem:
        differing = sorted(
            addr for addr in set(emulator_mem) | set(shadow_mem)
            if emulator_mem.get(addr, 0) != shadow_mem.get(addr, 0)
        )
        failures.append(
            f"memory image differs at {len(differing)} byte(s), "
            f"first at {differing[0]:#x}"
        )
    return failures


def compare_stats(compiled_payload: dict, reference_payload: dict) -> list[str]:
    """Compiled vs reference ``SimStats.to_dict()`` payloads, byte level."""
    import json

    compiled_bytes = json.dumps(compiled_payload, sort_keys=True)
    reference_bytes = json.dumps(reference_payload, sort_keys=True)
    if compiled_bytes == reference_bytes:
        return []
    differing = {
        key: (compiled_payload.get(key), reference_payload.get(key))
        for key in set(compiled_payload) | set(reference_payload)
        if compiled_payload.get(key) != reference_payload.get(key)
    }
    return [f"compiled/reference SimStats diverge: {differing}"]


def check_timing_invariants(simulator, config, trace) -> list[str]:
    """Machine-independent timing invariants on a finished run.

    Checks per-instruction lifecycle ordering (fetch <= dispatch <=
    issue < complete <= commit), in-order commit within the retire
    width, operand arrival (a consumer issues no earlier than its
    producer completes plus the wakeup bubble, plus the inter-cluster
    bypass across clusters), load-after-store order (a load issues no
    earlier than any earlier store, Table 3), per-cycle issue-width,
    functional-unit and cache-port limits, the register-file read
    ports of a machine with a read-port budget (each issued instruction
    reads ``len(srcs)`` registers from its cluster's ports), occupancy
    bounds, and the stall-cycle partition (``SimStats.validate``).
    """
    failures: list[str] = []
    stats = simulator.stats
    try:
        stats.validate()
    except ValueError as error:
        failures.append(f"stats invariants: {error}")
    n = len(trace)
    if stats.committed != n:
        failures.append(
            f"committed {stats.committed} of {n} trace instructions"
        )
    insts = trace.insts
    producers = dependence_info(trace)
    bubble = config.wakeup_select_stages - 1
    extra = config.extra_bypass_latency
    clusters = config.clusters
    fetch = simulator.fetch_cycle
    dispatch = simulator.dispatch_cycle
    issue = simulator.issue_cycle
    complete = simulator.complete_cycle
    commit = simulator.commit_cycle
    cluster_of = simulator.cluster_of
    issued_per_cycle: dict[int, int] = {}
    committed_per_cycle: dict[int, int] = {}
    fu_per_cycle: dict[tuple[int, int], int] = {}
    reads_per_cycle: dict[tuple[int, int], int] = {}
    mem_per_cycle: dict[int, int] = {}
    # The latest issue cycle of any store so far: a later load must
    # not issue before it (every earlier store address is known).
    store_issued = -1
    for seq in range(n):
        if not simulator.issued[seq]:
            failures.append(f"inst {seq} never issued")
            continue
        if not (fetch[seq] <= dispatch[seq] <= issue[seq]):
            failures.append(
                f"inst {seq} lifecycle out of order: fetch {fetch[seq]}, "
                f"dispatch {dispatch[seq]}, issue {issue[seq]}"
            )
        if complete[seq] < issue[seq] + 1:
            failures.append(
                f"inst {seq} completed at {complete[seq]} before "
                f"issue {issue[seq]} + latency"
            )
        if commit[seq] < complete[seq]:
            failures.append(
                f"inst {seq} committed at {commit[seq]} before "
                f"completing at {complete[seq]}"
            )
        if seq and commit[seq] < commit[seq - 1]:
            failures.append(
                f"out-of-order commit: inst {seq} at {commit[seq]} "
                f"before inst {seq - 1} at {commit[seq - 1]}"
            )
        cluster = cluster_of[seq]
        if 0 <= cluster < len(clusters):
            key = (issue[seq], cluster)
            fu_per_cycle[key] = fu_per_cycle.get(key, 0) + 1
            reads_per_cycle[key] = (reads_per_cycle.get(key, 0)
                                    + len(insts[seq].srcs))
        else:
            failures.append(f"inst {seq} on bogus cluster {cluster}")
        for producer in producers[seq]:
            if producer == NO_PRODUCER:
                continue
            arrival = complete[producer] + bubble
            if cluster_of[producer] != cluster:
                arrival += extra
            if issue[seq] < arrival:
                failures.append(
                    f"inst {seq} issued at {issue[seq]} before its operand "
                    f"from inst {producer} arrived at {arrival}"
                )
        op_class = insts[seq].op_class
        if op_class is OpClass.LOAD or op_class is OpClass.STORE:
            mem_per_cycle[issue[seq]] = mem_per_cycle.get(issue[seq], 0) + 1
            if op_class is OpClass.STORE:
                store_issued = max(store_issued, issue[seq])
            elif issue[seq] < store_issued:
                failures.append(
                    f"load {seq} issued at {issue[seq]} before an earlier "
                    f"store issued at {store_issued}"
                )
        issued_per_cycle[issue[seq]] = issued_per_cycle.get(issue[seq], 0) + 1
        committed_per_cycle[commit[seq]] = (
            committed_per_cycle.get(commit[seq], 0) + 1
        )
        if len(failures) > 8:  # a broken run floods; keep output short
            failures.append("... further per-instruction checks elided")
            break
    if issued_per_cycle and max(issued_per_cycle.values()) > config.issue_width:
        failures.append(
            f"issue width exceeded: {max(issued_per_cycle.values())} > "
            f"{config.issue_width}"
        )
    if (committed_per_cycle
            and max(committed_per_cycle.values()) > config.retire_width):
        failures.append(
            f"retire width exceeded: {max(committed_per_cycle.values())} > "
            f"{config.retire_width}"
        )
    for (cycle, cluster), count in sorted(fu_per_cycle.items()):
        if count > clusters[cluster].fu_count:
            failures.append(
                f"cluster {cluster} issued {count} at cycle {cycle} with "
                f"{clusters[cluster].fu_count} functional units"
            )
            break
    if config.regfile_read_ports:
        for (cycle, cluster), reads in sorted(reads_per_cycle.items()):
            if reads > config.regfile_read_ports:
                failures.append(
                    f"cluster {cluster} read {reads} registers at cycle "
                    f"{cycle} with {config.regfile_read_ports} read ports"
                )
                break
    if mem_per_cycle and max(mem_per_cycle.values()) > config.cache.ports:
        failures.append(
            f"cache ports exceeded: {max(mem_per_cycle.values())} memory "
            f"operations issued in one cycle > {config.cache.ports}"
        )
    if stats.occupancy_sum > stats.cycles * config.total_capacity:
        failures.append(
            f"occupancy sum {stats.occupancy_sum} exceeds cycles x capacity "
            f"({stats.cycles} x {config.total_capacity})"
        )
    return failures
