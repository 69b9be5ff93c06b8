"""Simulation statistics, stall attribution, and their invariants.

Two layers of accounting live here:

* **Event counters** (``committed``, ``mispredicts``, ...) incremented
  by the pipeline as things happen.
* **Cycle attribution**: every simulated cycle is charged to exactly
  one :class:`StallCause` (or counted as active), so the breakdown
  always sums to ``cycles``.  :meth:`SimStats.validate` asserts this
  and the other cross-counter invariants.

All serialisation goes through :meth:`SimStats.to_dict` /
:meth:`SimStats.from_dict` -- the one audited path -- and
multi-workload aggregation goes through :meth:`SimStats.merge`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class StallCause(str, Enum):
    """Closed set of reasons a cycle (or a dispatch slot) is lost.

    The string values are the wire format used in JSON exports and
    accepted by :meth:`SimStats.note_stall`; anything outside this
    enum raises ``ValueError`` instead of silently creating a new
    counter.
    """

    #: Dispatch blocked: 128-instruction in-flight window is full.
    IN_FLIGHT = "in_flight"
    #: Dispatch blocked: no free integer physical register.
    INT_REGS = "int_regs"
    #: Dispatch blocked: no free floating-point physical register.
    FP_REGS = "fp_regs"
    #: Dispatch blocked: the issue window has no free entry.
    WINDOW_FULL = "window_full"
    #: Dispatch blocked: the steering heuristic found no usable FIFO.
    NO_FIFO = "no_fifo"
    #: Nothing to dispatch: front end starved (mispredict redirect,
    #: front-end latency, or an empty fetch buffer).
    FETCH_STARVED = "fetch_starved"
    #: Issue blocked: a ready instruction found no free functional unit.
    FU_CONTENTION = "fu_contention"
    #: Issue blocked: a ready memory operation found no free cache port.
    CACHE_PORT = "cache_port"
    #: Issue blocked: a ready load waits for an earlier store's address.
    LOAD_STORE_ORDER = "load_store_order"
    #: Issue blocked: operands have not yet crossed the inter-cluster
    #: bypass to a cluster with a free unit (execution-driven steering).
    INTER_CLUSTER_WAIT = "inter_cluster_wait"
    #: Issue blocked: the register file ran out of read ports this
    #: cycle (the ``ports_limited`` regfile model).
    REGFILE_PORT = "regfile_port"
    #: Issue blocked: the scheduler held a candidate past its
    #: predicted ready time (the ``load_delay_tracking`` strategy).
    SCHED_WAIT = "sched_wait"
    #: End of trace: fetch exhausted, pipeline draining to commit.
    DRAIN = "drain"


#: Dispatch-side causes that per-cycle attribution may refine with an
#: issue-side cause (backpressure ultimately created at issue).
BACKPRESSURE_CAUSES = frozenset(
    (StallCause.WINDOW_FULL, StallCause.NO_FIFO, StallCause.IN_FLIGHT)
)


@dataclass
class SimStats:
    """Counters and results from one timing-simulation run.

    IPC is instructions *committed* per cycle, as in the paper's
    figures.
    """

    machine: str = ""
    workload: str = ""
    committed: int = 0
    cycles: int = 0
    fetched: int = 0
    branch_lookups: int = 0
    branch_hits: int = 0
    mispredicts: int = 0
    cache_accesses: int = 0
    cache_misses: int = 0
    store_forwards: int = 0
    #: Committed instructions that consumed at least one operand over
    #: an inter-cluster bypass (Figure 17 bottom).
    inter_cluster_bypasses: int = 0
    #: Dispatch-slot stall events by cause (one per blocked dispatch
    #: cycle, as before, but keys are now :class:`StallCause`).
    dispatch_stalls: dict[StallCause, int] = field(default_factory=dict)
    #: Histogram of instructions issued per cycle.
    issue_histogram: dict[int, int] = field(default_factory=dict)
    #: Sum over cycles of buffered (window/FIFO) instructions.
    occupancy_sum: int = 0
    #: Cycles in which dispatch made forward progress.
    active_cycles: int = 0
    #: Cycle-exact attribution: every non-active cycle charged to one
    #: cause; ``active_cycles + sum(stall_cycles) == cycles``.
    stall_cycles: dict[StallCause, int] = field(default_factory=dict)
    #: Clock period in picoseconds; 0.0 from every simulation.  Frontier
    #: points carry their clock themselves
    #: (:func:`repro.core.frontier.frontier_point`); the field stays
    #: because the serialised payload, and so every cache key and
    #: pinned digest, includes it.  Not a counter: merging requires
    #: agreement rather than summing.
    clock_ps: float = 0.0

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.committed / self.cycles

    @property
    def branch_accuracy(self) -> float:
        """Conditional-branch prediction accuracy."""
        if self.branch_lookups == 0:
            return 0.0
        return self.branch_hits / self.branch_lookups

    @property
    def cache_miss_rate(self) -> float:
        """Data-cache miss rate."""
        if self.cache_accesses == 0:
            return 0.0
        return self.cache_misses / self.cache_accesses

    @property
    def mean_occupancy(self) -> float:
        """Mean instructions buffered in the issue window/FIFOs."""
        if self.cycles == 0:
            return 0.0
        return self.occupancy_sum / self.cycles

    @property
    def inter_cluster_bypass_frequency(self) -> float:
        """Fraction of committed instructions using inter-cluster
        bypasses (the paper's Figure 17 metric)."""
        if self.committed == 0:
            return 0.0
        return self.inter_cluster_bypasses / self.committed

    # ------------------------------------------------------------------
    # recording hooks (called by the pipeline)
    # ------------------------------------------------------------------

    def note_stall(self, cause: StallCause | str) -> None:
        """Record one blocked dispatch cycle attributed to ``cause``.

        Raises:
            ValueError: if ``cause`` is not a :class:`StallCause`.
        """
        cause = StallCause(cause)
        self.dispatch_stalls[cause] = self.dispatch_stalls.get(cause, 0) + 1

    def note_issue(self, count: int) -> None:
        """Record the number of instructions issued this cycle."""
        self.issue_histogram[count] = self.issue_histogram.get(count, 0) + 1

    def attribute_cycle(self, cause: StallCause | None) -> None:
        """Charge one cycle to ``cause`` (None = dispatch progressed)."""
        if cause is None:
            self.active_cycles += 1
        else:
            cause = StallCause(cause)
            self.stall_cycles[cause] = self.stall_cycles.get(cause, 0) + 1

    # ------------------------------------------------------------------
    # invariants, aggregation, serialisation
    # ------------------------------------------------------------------

    def validate(self) -> "SimStats":
        """Check cross-counter invariants; raises on violation.

        Checks (for a completed run):

        * ``committed <= fetched``;
        * the issue histogram covers every cycle and its weighted
          total equals the committed count (everything committed was
          issued exactly once, and nothing else was);
        * stall/active cycle attribution partitions ``cycles``;
        * stall keys come from the closed :class:`StallCause` enum.

        Returns:
            self, for chaining.

        Raises:
            ValueError: listing every violated invariant.
        """
        errors: list[str] = []
        if self.committed > self.fetched:
            errors.append(
                f"committed ({self.committed}) exceeds fetched ({self.fetched})"
            )
        histogram_cycles = sum(self.issue_histogram.values())
        if histogram_cycles != self.cycles:
            errors.append(
                f"issue histogram covers {histogram_cycles} cycles, "
                f"expected {self.cycles}"
            )
        issued = sum(k * v for k, v in self.issue_histogram.items())
        if issued != self.committed:
            errors.append(
                f"issue histogram totals {issued} issued instructions, "
                f"expected {self.committed} (committed)"
            )
        attributed = self.active_cycles + sum(self.stall_cycles.values())
        if attributed != self.cycles:
            errors.append(
                f"cycle attribution covers {attributed} cycles "
                f"({self.active_cycles} active + "
                f"{sum(self.stall_cycles.values())} stalled), "
                f"expected {self.cycles}"
            )
        for mapping, label in (
            (self.dispatch_stalls, "dispatch_stalls"),
            (self.stall_cycles, "stall_cycles"),
        ):
            for key in mapping:
                if not isinstance(key, StallCause):
                    errors.append(f"{label} key {key!r} is not a StallCause")
        if errors:
            raise ValueError("; ".join(errors))
        return self

    def merge(self, other: "SimStats") -> "SimStats":
        """Combine two runs' counters into a new :class:`SimStats`.

        Counters add; the machine label must agree (merging different
        machines is almost always an aggregation bug); workload labels
        join with ``+``.  Ratios (IPC and friends) then reflect the
        pooled cycles/instructions, which is the per-counter-sum
        aggregation the paper's harmonic-mean tables need underneath.

        Raises:
            ValueError: if the machine labels or (nonzero) clock
                annotations differ.
        """
        if self.machine and other.machine and self.machine != other.machine:
            raise ValueError(
                f"refusing to merge stats from different machines: "
                f"{self.machine!r} vs {other.machine!r}"
            )
        if (self.clock_ps and other.clock_ps
                and self.clock_ps != other.clock_ps):
            raise ValueError(
                f"refusing to merge stats with different clock "
                f"annotations: {self.clock_ps} ps vs {other.clock_ps} ps"
            )
        merged = SimStats(
            machine=self.machine or other.machine,
            workload="+".join(
                part for part in (self.workload, other.workload) if part
            ),
        )
        for name in _COUNTER_FIELDS:
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        for mapping_name in ("dispatch_stalls", "issue_histogram", "stall_cycles"):
            combined = dict(getattr(self, mapping_name))
            for key, value in getattr(other, mapping_name).items():
                combined[key] = combined.get(key, 0) + value
            setattr(merged, mapping_name, combined)
        merged.clock_ps = self.clock_ps or other.clock_ps
        return merged

    def to_dict(self) -> dict:
        """JSON-ready primitives (the single audited export path)."""
        payload = {"machine": self.machine, "workload": self.workload}
        for name in _COUNTER_FIELDS:
            payload[name] = getattr(self, name)
        payload["dispatch_stalls"] = {
            cause.value: count for cause, count in self.dispatch_stalls.items()
        }
        # JSON object keys must be strings.
        payload["issue_histogram"] = {
            str(k): v for k, v in self.issue_histogram.items()
        }
        payload["stall_cycles"] = {
            cause.value: count for cause, count in self.stall_cycles.items()
        }
        payload["clock_ps"] = self.clock_ps
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SimStats":
        """Inverse of :meth:`to_dict` (missing keys default to zero).

        Raises:
            ValueError: if a stall key is outside :class:`StallCause`.
        """
        stats = cls(
            machine=payload.get("machine", ""),
            workload=payload.get("workload", ""),
        )
        for name in _COUNTER_FIELDS:
            setattr(stats, name, payload.get(name, 0))
        stats.dispatch_stalls = {
            StallCause(cause): count
            for cause, count in payload.get("dispatch_stalls", {}).items()
        }
        stats.issue_histogram = {
            int(k): v for k, v in payload.get("issue_histogram", {}).items()
        }
        stats.stall_cycles = {
            StallCause(cause): count
            for cause, count in payload.get("stall_cycles", {}).items()
        }
        stats.clock_ps = float(payload.get("clock_ps", 0.0))
        return stats

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def stall_breakdown(self) -> list[tuple[str, int, float]]:
        """(cause, cycles, fraction-of-total) rows, largest first,
        with an ``active`` row, summing to ``cycles``."""
        total = self.cycles or 1
        rows = [("active", self.active_cycles, self.active_cycles / total)]
        rows.extend(
            (cause.value, count, count / total)
            for cause, count in sorted(
                self.stall_cycles.items(), key=lambda item: -item[1]
            )
        )
        return rows

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.machine} on {self.workload}: IPC={self.ipc:.3f} "
            f"({self.committed} insts / {self.cycles} cycles, "
            f"bpred={self.branch_accuracy * 100:.1f}%, "
            f"dmiss={self.cache_miss_rate * 100:.1f}%, "
            f"xbypass={self.inter_cluster_bypass_frequency * 100:.1f}%)"
        )


#: Plain integer counters handled uniformly by merge / to_dict.
_COUNTER_FIELDS = (
    "committed",
    "cycles",
    "fetched",
    "branch_lookups",
    "branch_hits",
    "mispredicts",
    "cache_accesses",
    "cache_misses",
    "store_forwards",
    "inter_cluster_bypasses",
    "occupancy_sum",
    "active_cycles",
)
