"""Parameterised synthetic trace generation.

For controlled studies (and fast tests) it is useful to generate
dynamic traces directly, with dialled-in dependence distance, branch
behaviour, and memory mix, instead of running a real kernel.  The
generator builds a static loop body whose slots have fixed classes and
register dependences, then unrolls it dynamically with per-iteration
branch outcomes -- so a gshare predictor and the steering heuristics
see realistic, learnable structure.

The unroll appends straight into a :class:`~repro.isa.trace.Trace`'s
columns.  A source operand is drawn as the destination some number of
writes back, so the generator knows its producer as it draws it: it
keeps the seq that last wrote each destination register and emits
that link, with no walk over the finished stream.  The slot's static
fields (opcode, class flags) are gathered per slot afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import OpClass
from repro.isa.trace import NO_PRODUCER, Trace
from repro.workloads._datagen import Lcg

#: Registers the generator cycles through for destinations.
_DEST_REGS = tuple(range(1, 25))

#: The opcode each generated class is spelled with.
_OPCODES = {
    OpClass.IALU: "addu",
    OpClass.LOAD: "lw",
    OpClass.STORE: "sw",
    OpClass.BRANCH: "bne",
}


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of a synthetic trace.

    Attributes:
        length: Dynamic instructions to generate.
        body_size: Static loop-body slots (the PC footprint).
        load_fraction: Fraction of slots that are loads.
        store_fraction: Fraction of slots that are stores.
        branch_fraction: Fraction of slots that are conditional
            branches.
        branch_taken_probability: Per-branch probability of being
            taken each iteration; 0 or 1 makes branches perfectly
            predictable, 0.5 makes them maximally unpredictable.
        mean_dependence_distance: Average distance (in dynamic
            instructions) to a source operand's producer; small values
            make long serial chains.
        memory_words: Size of the address pool touched by loads and
            stores.
        seed: Generator seed (traces are deterministic per seed).
    """

    length: int = 10_000
    body_size: int = 64
    load_fraction: float = 0.20
    store_fraction: float = 0.10
    branch_fraction: float = 0.15
    branch_taken_probability: float = 0.6
    mean_dependence_distance: float = 4.0
    memory_words: int = 4096
    seed: int = 1

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"length must be >= 0, got {self.length}")
        if self.body_size < 2:
            raise ValueError(f"body_size must be >= 2, got {self.body_size}")
        fractions = self.load_fraction + self.store_fraction + self.branch_fraction
        if not 0.0 <= fractions <= 1.0:
            raise ValueError("class fractions must sum to within [0, 1]")
        if not 0.0 <= self.branch_taken_probability <= 1.0:
            raise ValueError("branch_taken_probability must be a probability")
        if self.mean_dependence_distance < 1.0:
            raise ValueError("mean_dependence_distance must be >= 1")
        if self.memory_words < 1:
            raise ValueError("memory_words must be >= 1")


def _pick_class(rng: Lcg, config: SyntheticConfig) -> OpClass:
    roll = rng.next_below(1000) / 1000.0
    if roll < config.load_fraction:
        return OpClass.LOAD
    roll -= config.load_fraction
    if roll < config.store_fraction:
        return OpClass.STORE
    roll -= config.store_fraction
    if roll < config.branch_fraction:
        return OpClass.BRANCH
    return OpClass.IALU


def _prefix_length(scale: int, holds) -> int:
    """How many of the draws ``0 .. scale-1`` satisfy ``holds``.

    ``holds`` must be true on a prefix of the draws (a test such as
    ``k / scale < p`` is, because ``k / scale`` never decreases in
    ``k``), so a float test on a draw equals the integer test
    ``k < _prefix_length(scale, holds)``.
    """
    low, high = 0, scale
    while low < high:
        mid = (low + high) // 2
        if holds(mid):
            low = mid + 1
        else:
            high = mid
    return low


def synthetic_trace(config: SyntheticConfig) -> Trace:
    """Generate a synthetic dynamic :class:`Trace` from a config."""
    rng = Lcg(config.seed)
    # ---- static loop body ---------------------------------------------
    classes = [_pick_class(rng, config) for _ in range(config.body_size)]
    classes[-1] = OpClass.BRANCH  # loop-closing backward branch
    # Per-slot branch bias: individual branches lean taken or not, so a
    # history predictor has something to learn when the global
    # probability is not extreme.  Everything the unroll needs about a
    # slot is hoisted into one tuple: (source operands, writes a
    # destination, touches memory, is a branch, and the draw below
    # which its branch is taken).
    slots = []
    for op_class in classes:
        taken_below = 0
        if op_class is OpClass.BRANCH:
            base = config.branch_taken_probability
            lean = (rng.next_below(400) - 200) / 1000.0  # +-0.2
            bias = min(0.98, max(0.02, base + lean))
            taken_below = _prefix_length(
                10_000, lambda k, bias=bias: k / 10_000.0 < bias)
        is_load = op_class is OpClass.LOAD
        slots.append((
            1 if is_load else 2, is_load or op_class is OpClass.IALU,
            is_load or op_class is OpClass.STORE,
            op_class is OpClass.BRANCH, taken_below,
        ))
    # ---- dynamic unroll --------------------------------------------------
    # Source operands reference recent producers at geometric distances
    # (this is what sets the trace's ILP): each operand draws until a
    # draw falls at or below 1/mean, or the distance reaches 64 (a mean
    # of 1 draws nothing).
    mean = config.mean_dependence_distance
    distances = range(1, 65) if mean > 1.0 else ()
    success = 1.0 / mean
    stop_below = _prefix_length(10_000, lambda k: k / 10_000.0 <= success)
    # Destinations cycle through _DEST_REGS, so the register `distance`
    # destinations back is a function of how many were written; the
    # 64-entry recent-producer window never needs to be held.  Its
    # producer is the last seq that wrote that register: `writer` maps
    # each _DEST_REGS index to it.
    dest_regs = _DEST_REGS
    n_dest = len(dest_regs)
    writer = [NO_PRODUCER] * n_dest
    memory_words = config.memory_words
    last = config.body_size - 1
    state = rng.state  # the Lcg step, inlined below
    columns: tuple[list, ...] = ([], [], [], [], [], [])
    (pcs, srcs_col, dest_col, addr_col, taken_col, links) = columns
    (add_pc, add_srcs, add_dest, add_addr, add_taken,
     add_link) = (column.append for column in columns)
    written = 0  # destinations written so far
    pc = 0
    for seq in range(config.length):
        operands, has_dest, has_mem, is_branch, taken_below = slots[pc]
        srcs: tuple[int, ...] = ()
        producers: tuple[int, ...] = ()
        if written:
            distance = 1
            for distance in distances:
                state = (state * 1664525 + 1013904223) & 0xFFFFFFFF
                if (state >> 8) % 10_000 < stop_below:
                    break
            first = written - distance
            first = first % n_dest if first > 0 else 0
            if operands == 2:
                distance = 1
                for distance in distances:
                    state = (state * 1664525 + 1013904223) & 0xFFFFFFFF
                    if (state >> 8) % 10_000 < stop_below:
                        break
                second = written - distance
                second = second % n_dest if second > 0 else 0
                srcs = (dest_regs[first], dest_regs[second])
                producers = (writer[first], writer[second])
            else:
                srcs = (dest_regs[first],)
                producers = (writer[first],)
        dest = None
        if has_dest:
            index = written % n_dest
            dest = dest_regs[index]
            writer[index] = seq
            written += 1
        mem_addr = None
        if has_mem:
            state = (state * 1664525 + 1013904223) & 0xFFFFFFFF
            mem_addr = 4 * ((state >> 8) % memory_words)
        taken = False
        next_pc = pc + 1
        if is_branch:
            state = (state * 1664525 + 1013904223) & 0xFFFFFFFF
            taken = (state >> 8) % 10_000 < taken_below
            if pc == last:
                taken = True  # the loop branch always closes the loop
                next_pc = 0
            elif taken:
                # Mid-body branches skip forward a couple of slots
                # (if-shaped control flow), keeping the dynamic class
                # mix close to the configured static mix.
                state = (state * 1664525 + 1013904223) & 0xFFFFFFFF
                next_pc = pc + 2 + (state >> 8) % 3
        if next_pc > last:
            next_pc = 0
        add_pc(pc)
        add_srcs(srcs)
        add_dest(dest)
        add_addr(mem_addr)
        add_taken(taken)
        add_link(producers)
        pc = next_pc
    opcodes = [_OPCODES[op_class] for op_class in classes]
    return Trace(pcs, list(map(opcodes.__getitem__, pcs)), srcs_col,
                 dest_col, addr_col, taken_col, links, final_pc=pc,
                 halted=False, name=f"synthetic(seed={config.seed})")
