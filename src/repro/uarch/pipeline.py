"""The cycle-level out-of-order pipeline timing model.

Trace-driven, like the paper's modified SimpleScalar: the committed
dynamic stream is replayed through the pipeline stages of Figure 1
(dependence-based variants follow Figure 11):

* **fetch** -- up to ``fetch_width`` instructions per cycle from a
  perfect instruction cache; conditional branches consult gshare, and
  a misprediction halts fetch until the branch executes (wrong-path
  work is modeled as lost fetch cycles).  Unconditional control
  transfers are predicted perfectly (Table 3).
* **rename/dispatch** -- in-order, up to ``dispatch_width`` per cycle,
  limited by physical registers, the 128-instruction in-flight window,
  and issue-buffer capacity; the steering policy assigns a cluster
  (and FIFO, for FIFO machines) here.
* **wakeup/select** -- out-of-order issue of up to ``issue_width``
  ready instructions per cycle, oldest first, subject to per-cluster
  functional units, cache ports, and -- for FIFO clusters -- the
  constraint that only FIFO heads are visible to select.  Loads also
  wait until every earlier store has computed its address (Table 3).
* **execute/bypass** -- single-cycle symmetric units; loads take the
  cache hit/miss latency; a value produced in one cluster reaches the
  other after the inter-cluster bypass latency.
* **commit** -- in order, up to ``retire_width`` per cycle.

The per-operand wakeup is event driven: each producer schedules
arrival events for its consumers, per cluster, so a cycle's work is
proportional to actual activity.

:class:`PipelineSimulator` builds the machine state for one
(config, trace) pair; its :meth:`~PipelineSimulator.run` executes the
cycle loop through the per-config compiled runner of
:mod:`repro.uarch.compile`, which exists for every valid config.  The
statistics are pinned cycle-for-cycle to
:mod:`repro.uarch.pipeline_reference` (the frozen, readable model) by
the equivalence suite.  The speed comes from the mechanisms documented
in ``docs/performance.md``:

* per-trace pre-analysis (:mod:`repro.uarch.preanalysis`) turns
  repeated attribute/enum lookups into flat array indexing;
* the generated runner folds every machine constant and drops every
  branch the shape can never take;
* idle cycles -- where no stage can possibly act -- are *skipped* by
  jumping the clock to the next scheduled event while replicating the
  per-cycle statistics the reference would have accumulated.

Cycle skipping is disabled automatically in the configurations where
a spinning cycle has side effects (the load-delay-tracking scheduler
holds candidates until cycles no event marks); random steering and
execution-driven steering keep it, guarded per cycle.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.isa.emulator import Trace
from repro.isa.instructions import FP_REG_BASE
from repro.obs.events import EventTracer
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.compile import run_compiled
from repro.uarch.config import MachineConfig, SteeringPolicy
from repro.uarch.preanalysis import preanalyze
from repro.uarch.predictor import GshareBranchPredictor
from repro.uarch.rename import RegisterRenamer
from repro.uarch.stats import SimStats

_INF = float("inf")

#: Cycles after a value's arrival in a cluster until it can be read
#: from that cluster's register file instead of a bypass path (the
#: REG WRITE stage depth in Figure 1); used only for the Figure 17
#: inter-cluster bypass-frequency accounting.
REGFILE_WRITE_DELAY = 2

#: Fetch-buffer depth in multiples of the fetch width.
_FETCH_BUFFER_FACTOR = 2


def fifo_geometry(config: MachineConfig) -> list[tuple[int, int]]:
    """``(count, depth)`` of each cluster's steering FIFOs.

    The real issue FIFOs of a FIFO machine, or -- for window dispatch
    steering (Section 5.6.2) -- each window modeled as conceptual
    FIFOs of four slots; empty for every other machine.
    """
    if any(c.uses_fifos for c in config.clusters):
        return [(c.fifo_count, c.fifo_depth) for c in config.clusters]
    if config.steering is SteeringPolicy.WINDOW_DISPATCH:
        return [(max(1, c.window_size // 4), 4) for c in config.clusters]
    return []


class PipelineSimulator:
    """One machine configuration bound to one trace.

    Use :func:`simulate` for the one-shot convenience form.

    Args:
        config: The machine to model.
        trace: The committed dynamic instruction stream to replay.
        tracer: Optional :class:`~repro.obs.events.EventTracer`; when
            attached, every lifecycle step of every instruction is
            emitted as a structured event (a traced runner variant is
            compiled; untraced runners contain no probe code).

    Attributes:
        stage_times: ``None``, or a list of five floats the profiled
            runner variant adds each stage's host seconds to (see
            :func:`repro.obs.profiling.profile_simulation`).
    """

    def __init__(
        self,
        config: MachineConfig,
        trace: Trace,
        tracer: EventTracer | None = None,
    ):
        self.config = config
        self.trace = trace
        self.tracer = tracer
        self.insts = trace.insts
        self.pre = preanalyze(trace)
        self.n_clusters = len(config.clusters)
        self.predictor = GshareBranchPredictor(config.predictor)
        self.cache = SetAssociativeCache(config.cache)
        self.stats = SimStats(machine=config.name, workload=trace.name)
        # Read-port demand per instruction (at most 2 in this ISA) for
        # the ports_limited register file; None for unlimited ports.
        self.regfile_reads: list[int] | None = None
        if config.regfile == "ports_limited":
            read_ports = config.regfile_read_ports
            self.regfile_reads = [len(inst.srcs) for inst in self.insts]
            widest = max(self.regfile_reads, default=0)
            if widest > read_ports:
                raise ValueError(
                    f"an instruction reads {widest} registers but the "
                    f"ports_limited file has only {read_ports} read "
                    f"ports per cluster; it could never issue"
                )
        self.stage_times: list[float] | None = None
        self._reset_state()

    def _reset_state(self) -> None:
        n = len(self.insts)
        config = self.config
        self.cycle = 0
        # Per-instruction timing state.
        self.dispatched = bytearray(n)
        self.issued = bytearray(n)
        self.fetch_cycle = [0] * n
        self.dispatch_cycle = [0] * n
        self.issue_cycle = [0] * n
        self.complete_cycle = [_INF] * n
        self.commit_cycle = [0] * n
        self.cluster_of = [-1] * n
        self.home_cluster = [-1] * n  # cluster chosen at dispatch
        self.used_x_bypass = bytearray(n)
        # Wakeup plumbing.
        self.arrivals: dict[int, list[tuple[int, int]]] = {}
        self.waiting_on: list[list[int] | None] = [None] * n
        self.in_ready = bytearray(n)
        # Issue FIFOs (or, for window dispatch steering, the
        # conceptual FIFOs the heuristic runs over) as per-cluster
        # lists of per-FIFO seq lists, oldest entry first.
        self.fifo_lists: list[list[list[int]]] = [
            [[] for _ in range(count)] for count, _depth in fifo_geometry(config)
        ]
        # (cluster, fifo) of each instruction buffered in a FIFO.
        self.fifo_of: list[tuple[int, int] | None] = [None] * n
        self.window_count = [0] * self.n_clusters
        # Non-compacting (position-priority) selection: track which
        # window slot each instruction occupies; lowest free slot is
        # allocated at dispatch and freed at issue.
        self.slot_of: dict[int, int] = {}
        self.free_slots: list[list[int]] = [
            list(range(c.capacity)) for c in config.clusters
        ]
        for heap in self.free_slots:
            heapq.heapify(heap)
        self.ready_heaps: list[list[int]] = [[] for _ in range(self.n_clusters)]
        self.central_ready: list[int] = []
        # Frontend.
        self.fetch_ptr = 0
        self.next_fetch_cycle = 0
        self.pending_redirect: int | None = None
        self.fetch_buffer: deque[tuple[int, int]] = deque()  # (seq, ready cycle)
        # Resources.  Renaming is performed for real: map tables, free
        # lists, and previous-mapping release at commit.
        self.in_flight = 0
        if (config.int_phys_regs <= FP_REG_BASE
                or config.fp_phys_regs <= FP_REG_BASE):
            raise ValueError("physical register files smaller than the ISA")
        self.int_renamer = RegisterRenamer(
            physical_registers=config.int_phys_regs, logical_registers=FP_REG_BASE
        )
        self.fp_renamer = RegisterRenamer(
            physical_registers=config.fp_phys_regs, logical_registers=FP_REG_BASE
        )
        self.prev_dest_phys: list[int | None] = [None] * n
        # Memory ordering.
        self.unissued_stores: list[int] = []
        self.inflight_store_words: dict[int, int] = {}
        self.commit_ptr = 0
        self.skipped_cycles = 0

    @property
    def free_int_regs(self) -> int:
        """Free integer physical registers (from the real free list)."""
        return self.int_renamer.free_count

    @property
    def free_fp_regs(self) -> int:
        """Free floating-point physical registers."""
        return self.fp_renamer.free_count

    def run(self, max_cycles: int | None = None) -> SimStats:
        """Simulate until the whole trace commits.

        Args:
            max_cycles: Safety bound; defaults to 100 cycles per
                instruction plus slack.

        Returns:
            The populated :class:`SimStats`.

        Raises:
            RuntimeError: if the pipeline fails to make progress
                within the cycle bound (a deadlock would be a
                simulator bug).
        """
        return run_compiled(self, max_cycles=max_cycles)


#: Valid ``simulate(..., mode=...)`` values.
SIMULATE_MODES = ("reference", "compiled")


def simulate(
    config: MachineConfig,
    trace: Trace,
    max_cycles: int | None = None,
    tracer: EventTracer | None = None,
    mode: str = "compiled",
) -> SimStats:
    """Run one machine over one trace and return its statistics.

    Args:
        mode: ``"compiled"`` (the default) runs the per-config
            compiled pipeline from :mod:`repro.uarch.compile`;
            ``"reference"`` runs the frozen readable model
            (:func:`repro.uarch.pipeline_reference.simulate_reference`)
            the equivalence suite pins it against -- results are
            identical, only slower.
    """
    if mode not in SIMULATE_MODES:
        raise ValueError(
            f"unknown simulate mode {mode!r}; expected one of "
            f"{', '.join(SIMULATE_MODES)}"
        )
    if mode == "reference":
        from repro.uarch.pipeline_reference import simulate_reference

        return simulate_reference(config, trace, max_cycles=max_cycles,
                                  tracer=tracer)
    return PipelineSimulator(config, trace, tracer=tracer).run(
        max_cycles=max_cycles
    )
