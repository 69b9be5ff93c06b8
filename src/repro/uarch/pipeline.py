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

:class:`PipelineSimulator` binds one (config, trace) pair and keeps
the run's timing record; its :meth:`~PipelineSimulator.run` executes
the cycle loop through the per-config compiled runner of
:mod:`repro.uarch.compile`, which exists for every valid config and
builds all of the machine state itself.  The statistics are pinned
cycle-for-cycle to :mod:`repro.uarch.pipeline_reference` (the frozen,
readable model) by the equivalence suite.  The speed comes from the
mechanisms documented in ``docs/performance.md``:

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

from repro.isa.emulator import Trace
from repro.obs.events import EventTracer
from repro.uarch.compile import run_compiled
from repro.uarch.config import MachineConfig, SteeringPolicy
from repro.uarch.preanalysis import preanalyze
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

    Use :func:`simulate` for the one-shot convenience form.  The
    simulator holds the run's inputs and, once :meth:`run` returns,
    its timing record; the cycle loop's own state -- rename map tables
    and free lists, issue buffers, predictor counters, cache sets, the
    fetch buffer -- lives in the compiled runner's locals.

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
        fetch_cycle, dispatch_cycle, issue_cycle, complete_cycle,
            commit_cycle, cluster_of: Per-instruction lifecycle cycles
            and execution cluster, filled by :meth:`run`.
        issued: Per-instruction flags, set as each one issues.
        fifo_of: ``(cluster, fifo)`` of each instruction buffered in a
            (real or conceptual) steering FIFO; ``None`` once it issues.
        cycle: Cycles simulated.
        skipped_cycles: Idle cycles fast-forwarded rather than stepped.
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
        self.stats = SimStats(machine=config.name, workload=trace.name)
        self.stage_times: list[float] | None = None
        n = len(self.insts)
        self.fetch_cycle = [0] * n
        self.dispatch_cycle = [0] * n
        self.issue_cycle = [0] * n
        self.complete_cycle = [_INF] * n
        self.commit_cycle = [0] * n
        self.cluster_of = [-1] * n
        self.issued = bytearray(n)
        self.fifo_of: list[tuple[int, int] | None] = [None] * n
        self.cycle = 0
        self.skipped_cycles = 0

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
