"""Constrained-random ``repro.isa`` program generation for fuzzing.

The synthetic-trace generator (:mod:`repro.workloads.synthetic`)
fabricates dynamic streams directly, which is ideal for timing-only
studies but exercises no architectural semantics.  This module instead
generates real *assembly programs* -- loops with counted back-edges,
data-dependent (mispredicting) forward branches, loads and stores that
alias through a small shared array, multiply/divide chains, a sprinkle
of floating point, and call/return pairs -- so a case can be pushed
through all three implementations of the machine (ISA emulator, fast
pipeline, reference pipeline) and cross-checked end to end.

Two properties are guaranteed by construction:

* **Determinism** -- the whole program is a pure function of
  :class:`ProgramGenConfig` (every random draw comes from one seeded
  :class:`~repro.workloads._datagen.Lcg`).
* **Termination** -- every backward edge is a counted loop on a
  dedicated counter register that the loop body never touches, so a
  generated program always reaches ``halt`` (the emulator's
  instruction cap is a second, independent bound).

Programs are built as a list of source *lines* with labels on lines of
their own -- exactly the shape the delta-debugging minimizer
(:mod:`repro.verify.minimize`) wants: any subset of instruction lines
still assembles against the surviving labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads._datagen import Lcg

#: Registers holding generated data values (dests cycle through these).
_DATA_REGS = tuple(range(1, 13))
#: Scratch registers for computed (data-dependent) addresses.
_ADDR_REG = 13
#: Base register pointing at the shared data array.
_BASE_REG = 20
#: Loop counter registers, one per loop nesting slot; never used as a
#: data destination, so loop trip counts cannot be corrupted.
_COUNTER_REGS = (25, 26, 27, 28)

#: Register-register ALU opcodes the generator draws from.
_ALU_RR = ("addu", "subu", "and", "or", "xor", "slt", "sltu")
#: Register-immediate ALU opcodes.
_ALU_RI = ("addiu", "andi", "ori", "xori", "slti", "sll", "srl", "sra")
#: Two-source conditional branches (data dependent -> mispredicts).
_BRANCHES = ("beq", "bne", "blt", "bge")
#: Multiply/divide opcodes (IMUL class coverage).
_MULDIV = ("mult", "div", "rem")


@dataclass(frozen=True)
class ProgramGenConfig:
    """Parameters of one generated program.

    Attributes:
        seed: Sole entropy source; equal configs generate equal text.
        blocks: Number of counted loops laid out back to back.
        block_size: Instruction slots per loop body.
        loop_iterations: Trip count of each counted loop.
        memory_words: Size of the shared array; *small* values make
            loads and stores alias heavily (the interesting case for
            memory-ordering logic).
        store_fraction: Fraction of body slots that are stores.
        load_fraction: Fraction of body slots that are loads.
        branch_fraction: Fraction of body slots that are forward,
            data-dependent conditional branches.
        muldiv_fraction: Fraction of body slots that are mult/div/rem.
        fp_fraction: Fraction of body slots that are floating point.
        call_fraction: Fraction of body slots that call a leaf
            subroutine (``jal``/``jr`` coverage).
        outer_loop: Wrap all blocks in one extra counted loop.
    """

    seed: int = 0
    blocks: int = 3
    block_size: int = 10
    loop_iterations: int = 4
    memory_words: int = 12
    store_fraction: float = 0.15
    load_fraction: float = 0.20
    branch_fraction: float = 0.15
    muldiv_fraction: float = 0.06
    fp_fraction: float = 0.05
    call_fraction: float = 0.04
    outer_loop: bool = True

    def __post_init__(self) -> None:
        if self.blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {self.blocks}")
        if self.block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {self.block_size}")
        if self.loop_iterations < 1:
            raise ValueError("loop_iterations must be >= 1")
        if self.memory_words < 1:
            raise ValueError("memory_words must be >= 1")
        fractions = (
            self.store_fraction + self.load_fraction + self.branch_fraction
            + self.muldiv_fraction + self.fp_fraction + self.call_fraction
        )
        if not 0.0 <= fractions <= 1.0:
            raise ValueError("slot fractions must sum to within [0, 1]")


def _pick_slot_kind(rng: Lcg, config: ProgramGenConfig) -> str:
    roll = rng.next_below(1000) / 1000.0
    for kind, fraction in (
        ("store", config.store_fraction),
        ("load", config.load_fraction),
        ("branch", config.branch_fraction),
        ("muldiv", config.muldiv_fraction),
        ("fp", config.fp_fraction),
        ("call", config.call_fraction),
    ):
        if roll < fraction:
            return kind
        roll -= fraction
    return "alu"


class _Emitter:
    """Accumulates source lines and hands out unique labels."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._labels = 0

    def label(self, prefix: str) -> str:
        self._labels += 1
        return f"{prefix}{self._labels}"

    def inst(self, text: str) -> None:
        self.lines.append(f"    {text}")

    def mark(self, label: str) -> None:
        self.lines.append(f"{label}:")


def _emit_body_slot(
    emitter: _Emitter,
    rng: Lcg,
    config: ProgramGenConfig,
    dest_cursor: list[int],
    pending_labels: dict[int, list[str]],
    slot: int,
    block_size: int,
    has_leaf: bool,
) -> None:
    """Emit one loop-body slot (possibly scheduling a forward label)."""
    kind = _pick_slot_kind(rng, config)
    regs = _DATA_REGS
    src_a = regs[rng.next_below(len(regs))]
    src_b = regs[rng.next_below(len(regs))]
    dest = regs[dest_cursor[0] % len(regs)]
    dest_cursor[0] += 1
    if kind == "store":
        if rng.next_below(2):
            # Static-offset store into the small shared pool.
            offset = 4 * rng.next_below(config.memory_words)
            emitter.inst(f"sw    r{src_a}, {offset}(r{_BASE_REG})")
        else:
            # Data-dependent address: masked value indexes the pool,
            # so different iterations alias unpredictably.
            emitter.inst(f"andi  r{_ADDR_REG}, r{src_a}, "
                         f"{config.memory_words - 1}")
            emitter.inst(f"sll   r{_ADDR_REG}, r{_ADDR_REG}, 2")
            emitter.inst(f"addu  r{_ADDR_REG}, r{_ADDR_REG}, r{_BASE_REG}")
            emitter.inst(f"sw    r{src_b}, 0(r{_ADDR_REG})")
    elif kind == "load":
        if rng.next_below(2):
            offset = 4 * rng.next_below(config.memory_words)
            emitter.inst(f"lw    r{dest}, {offset}(r{_BASE_REG})")
        else:
            emitter.inst(f"andi  r{_ADDR_REG}, r{src_a}, "
                         f"{config.memory_words - 1}")
            emitter.inst(f"sll   r{_ADDR_REG}, r{_ADDR_REG}, 2")
            emitter.inst(f"addu  r{_ADDR_REG}, r{_ADDR_REG}, r{_BASE_REG}")
            emitter.inst(f"lw    r{dest}, 0(r{_ADDR_REG})")
    elif kind == "branch" and slot + 2 < block_size:
        # Forward, data-dependent branch over the next 1-3 slots.
        skip = 1 + rng.next_below(min(3, block_size - slot - 2))
        label = emitter.label("F")
        pending_labels.setdefault(slot + skip, []).append(label)
        opcode = _BRANCHES[rng.next_below(len(_BRANCHES))]
        emitter.inst(f"{opcode:5s} r{src_a}, r{src_b}, {label}")
    elif kind == "muldiv":
        opcode = _MULDIV[rng.next_below(len(_MULDIV))]
        emitter.inst(f"{opcode:5s} r{dest}, r{src_a}, r{src_b}")
    elif kind == "fp":
        fd = rng.next_below(4)
        emitter.inst(f"cvt.s.w f{fd}, r{src_a}")
        emitter.inst(f"add.s f{fd}, f{fd}, f{(fd + 1) & 3}")
    elif kind == "call" and has_leaf:
        emitter.inst("jal   leaf")
    else:  # alu (and the fall-through cases above)
        if rng.next_below(3) == 0:
            opcode = _ALU_RI[rng.next_below(len(_ALU_RI))]
            imm = rng.next_below(255) if opcode != "addiu" \
                else rng.next_below(511) - 255
            emitter.inst(f"{opcode:5s} r{dest}, r{src_a}, {imm}")
        else:
            opcode = _ALU_RR[rng.next_below(len(_ALU_RR))]
            emitter.inst(f"{opcode:5s} r{dest}, r{src_a}, r{src_b}")


def generate_source(config: ProgramGenConfig) -> str:
    """Generate a complete, terminating assembly program."""
    rng = Lcg(config.seed ^ 0x5EED_F00D)
    emitter = _Emitter()
    has_leaf = config.call_fraction > 0.0

    # Data section: the shared, heavily aliased word pool.
    emitter.lines.append("    .data")
    words = ", ".join(
        str(rng.next_below(1 << 16)) for _ in range(config.memory_words)
    )
    emitter.lines.append("pool:")
    emitter.lines.append(f"    .word {words}")
    emitter.lines.append("    .text")
    emitter.mark("main")
    emitter.inst(f"la    r{_BASE_REG}, pool")
    for reg in _DATA_REGS:
        emitter.inst(f"li    r{reg}, {rng.next_below(1 << 12)}")

    outer_counter = _COUNTER_REGS[-1]
    if config.outer_loop:
        emitter.inst(f"li    r{outer_counter}, 2")
        emitter.mark("outer")

    dest_cursor = [0]
    for block in range(config.blocks):
        counter = _COUNTER_REGS[block % (len(_COUNTER_REGS) - 1)]
        body_label = f"L{block}"
        emitter.inst(f"li    r{counter}, {config.loop_iterations}")
        emitter.mark(body_label)
        pending_labels: dict[int, list[str]] = {}
        for slot in range(config.block_size):
            for label in pending_labels.pop(slot, ()):
                emitter.mark(label)
            _emit_body_slot(
                emitter, rng, config, dest_cursor, pending_labels,
                slot, config.block_size, has_leaf,
            )
        for labels in pending_labels.values():
            for label in labels:
                emitter.mark(label)
        emitter.inst(f"addiu r{counter}, r{counter}, -1")
        emitter.inst(f"bgtz  r{counter}, {body_label}")

    if config.outer_loop:
        emitter.inst(f"addiu r{outer_counter}, r{outer_counter}, -1")
        emitter.inst(f"bgtz  r{outer_counter}, outer")
    emitter.inst("halt")

    if has_leaf:
        # A flat leaf subroutine (never calls anything, so the single
        # link register is safe).
        emitter.mark("leaf")
        emitter.inst("xor   r9, r1, r2")
        emitter.inst("addiu r9, r9, 17")
        emitter.inst("jr    r31")

    return "\n".join(emitter.lines) + "\n"
