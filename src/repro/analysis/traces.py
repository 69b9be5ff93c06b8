"""Trace characterisation: mix, dependences, ILP limits, branches,
memory.

The dependence-based microarchitecture's premise is that dynamic
instruction streams consist of chains of dependent instructions with
short producer-consumer distances; these analyses make that structure
visible and quantify how much parallelism a machine of a given window
size could ever extract.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import OpClass
from repro.isa.trace import Trace
from repro.uarch.config import PredictorConfig
from repro.uarch.depend import NO_PRODUCER, dependence_info
from repro.uarch.predictor import GshareBranchPredictor
from repro.workloads.registry import get_workload


def dependence_distance_histogram(trace: Trace) -> dict[int, int]:
    """Histogram of producer-to-consumer distances (in dynamic
    instructions), one sample per source operand with an in-trace
    producer.  Short distances are what make dependence steering
    work: the producer is usually still in a FIFO."""
    histogram: dict[int, int] = {}
    for seq, producers in enumerate(dependence_info(trace)):
        for producer in producers:
            if producer == NO_PRODUCER:
                continue
            distance = seq - producer
            histogram[distance] = histogram.get(distance, 0) + 1
    return histogram


def mean_dependence_distance(trace: Trace) -> float:
    """Mean producer-to-consumer distance (0 if no dependences)."""
    histogram = dependence_distance_histogram(trace)
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    return sum(d * count for d, count in histogram.items()) / total


def short_dependence_fraction(trace: Trace, within: int = 8) -> float:
    """Fraction of source operands whose producer is at most
    ``within`` dynamic instructions away.

    This is the dependence-based microarchitecture's empirical
    premise: most producers are recent enough to still be buffered,
    so steering the consumer behind them succeeds.  The paper's
    benchmarks show 60-90% of operands produced within 8
    instructions.
    """
    if within < 1:
        raise ValueError(f"within must be >= 1, got {within}")
    histogram = dependence_distance_histogram(trace)
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    near = sum(count for distance, count in histogram.items() if distance <= within)
    return near / total


def windowed_dataflow_ilp(trace: Trace, window: int = 128) -> float:
    """Dataflow-limited ILP discoverable within an in-flight window.

    Unit latencies and infinite functional units, but parallelism is
    only visible inside consecutive ``window``-sized chunks -- the
    resource a machine with that many in-flight instructions has.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not trace.insts:
        return 0.0
    total_levels = 0
    insts = trace.insts
    for start in range(0, len(insts), window):
        level_of_reg: dict[int, int] = {}
        max_level = 0
        for inst in insts[start : start + window]:
            level = 1 + max((level_of_reg.get(s, 0) for s in inst.srcs), default=0)
            if inst.dest is not None:
                level_of_reg[inst.dest] = level
            if level > max_level:
                max_level = level
        total_levels += max_level
    return len(insts) / total_levels if total_levels else float("inf")


def unbounded_dataflow_ilp(trace: Trace) -> float:
    """Dataflow-limited ILP with an unbounded window (the classic
    oracle limit: unit latency, no resource or window constraints)."""
    if not trace.insts:
        return 0.0
    level_of_reg: dict[int, int] = {}
    max_level = 0
    for inst in trace.insts:
        level = 1 + max((level_of_reg.get(s, 0) for s in inst.srcs), default=0)
        if inst.dest is not None:
            level_of_reg[inst.dest] = level
        if level > max_level:
            max_level = level
    return len(trace.insts) / max_level if max_level else float("inf")


@dataclass(frozen=True)
class BranchProfile:
    """Conditional-branch behaviour of a trace."""

    count: int
    taken_fraction: float
    static_sites: int
    gshare_accuracy: float  #: accuracy of a Table 3 gshare over the trace


def branch_profile(trace: Trace) -> BranchProfile:
    """Profile the conditional branches (jumps are excluded: the
    baseline model predicts them perfectly)."""
    predictor = GshareBranchPredictor(PredictorConfig())
    count = 0
    taken = 0
    sites = set()
    for inst in trace.insts:
        if not inst.is_branch:
            continue
        count += 1
        taken += int(inst.taken)
        sites.add(inst.pc)
        predictor.predict_and_update(inst.pc, inst.taken)
    return BranchProfile(
        count=count,
        taken_fraction=taken / count if count else 0.0,
        static_sites=len(sites),
        gshare_accuracy=predictor.accuracy,
    )


@dataclass(frozen=True)
class MemoryProfile:
    """Memory behaviour of a trace."""

    loads: int
    stores: int
    unique_words: int
    unique_lines: int  #: 32-byte lines, matching the Table 3 D-cache


def memory_profile(trace: Trace, line_bytes: int = 32) -> MemoryProfile:
    """Count memory operations and the footprint they touch."""
    if line_bytes < 1:
        raise ValueError(f"line_bytes must be >= 1, got {line_bytes}")
    loads = stores = 0
    words: set[int] = set()
    lines: set[int] = set()
    for inst in trace.insts:
        if inst.mem_addr is None:
            continue
        if inst.is_load:
            loads += 1
        if inst.is_store:
            stores += 1
        words.add(inst.mem_addr >> 2)
        lines.add(inst.mem_addr // line_bytes)
    return MemoryProfile(
        loads=loads, stores=stores, unique_words=len(words), unique_lines=len(lines)
    )


def basic_block_lengths(trace: Trace) -> list[int]:
    """Dynamic basic-block lengths (instructions between control
    transfers).  Short blocks mean steering decisions come thick and
    fast."""
    lengths: list[int] = []
    current = 0
    for inst in trace.insts:
        current += 1
        is_control = inst.is_branch or inst.is_uncond
        if is_control:
            lengths.append(current)
            current = 0
    if current:
        lengths.append(current)
    return lengths


@dataclass(frozen=True)
class TraceProfile:
    """Everything :func:`profile_trace` measures, in one record."""

    name: str
    length: int
    class_mix: dict[OpClass, float]
    mean_dependence_distance: float
    short_dependence_fraction: float  #: operands produced within 8 insts
    ilp_window_128: float
    ilp_unbounded: float
    branches: BranchProfile
    memory: MemoryProfile
    mean_basic_block: float

    def format_report(self) -> str:
        """Multi-line human-readable characterisation."""
        mix = ", ".join(
            f"{cls.value}={100 * fraction:.1f}%"
            for cls, fraction in sorted(
                self.class_mix.items(), key=lambda item: -item[1]
            )
        )
        return "\n".join(
            [
                f"{self.name or 'trace'}: {self.length} instructions",
                f"  mix: {mix}",
                f"  mean dependence distance: "
                f"{self.mean_dependence_distance:.1f} insts "
                f"({100 * self.short_dependence_fraction:.0f}% within 8)",
                f"  dataflow ILP: {self.ilp_window_128:.1f} (128-window), "
                f"{self.ilp_unbounded:.1f} (unbounded)",
                f"  branches: {self.branches.count} "
                f"({100 * self.branches.taken_fraction:.0f}% taken, "
                f"{self.branches.static_sites} sites, gshare "
                f"{100 * self.branches.gshare_accuracy:.1f}%)",
                f"  memory: {self.memory.loads} loads / {self.memory.stores} "
                f"stores over {self.memory.unique_lines} lines",
                f"  mean basic block: {self.mean_basic_block:.1f} insts",
            ]
        )


def profile_trace(trace: Trace) -> TraceProfile:
    """Run every analysis over a trace and package the results."""
    length = len(trace.insts)
    counts = trace.class_counts()
    class_mix = {
        cls: count / length if length else 0.0 for cls, count in counts.items()
    }
    blocks = basic_block_lengths(trace)
    return TraceProfile(
        name=trace.name,
        length=length,
        class_mix=class_mix,
        mean_dependence_distance=mean_dependence_distance(trace),
        short_dependence_fraction=short_dependence_fraction(trace),
        ilp_window_128=windowed_dataflow_ilp(trace, 128),
        ilp_unbounded=unbounded_dataflow_ilp(trace),
        branches=branch_profile(trace),
        memory=memory_profile(trace),
        mean_basic_block=sum(blocks) / len(blocks) if blocks else 0.0,
    )


def characterize(name: str, max_instructions: int = 5_000) -> dict:
    """A compact characterization of one workload (JSON-ready).

    This is what ``/v1/workloads?workload=...`` and the ``repro
    workloads`` listing serve: dynamic instruction mix, branch/load
    fractions, mean dependence distance, and memory footprint.
    """
    workload = get_workload(name)
    trace = workload.trace(max_instructions)
    mix = {op_class.value: count
           for op_class, count in sorted(trace.class_counts().items(),
                                         key=lambda item: item[0].value)}
    memory = memory_profile(trace)
    return {
        "name": name,
        "kind": workload.kind,
        "instructions": len(trace),
        "halted": trace.halted,
        "class_mix": mix,
        "branch_fraction": round(trace.branch_fraction(), 4),
        "load_fraction": round(trace.load_fraction(), 4),
        "mean_dependence_distance": round(
            mean_dependence_distance(trace), 3),
        "memory_words": memory.unique_words,
    }
