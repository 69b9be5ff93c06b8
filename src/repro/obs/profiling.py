"""Host-side profiling of the simulator itself.

The paper's machines are judged by cycles; the *reproduction* is
judged by wall-clock.  This module answers "where does simulation
time go?" and "what did the campaign do?" -- and since the metrics
backbone landed, every profile here is a **thin view over a**
:class:`~repro.obs.metrics.MetricsRegistry`: the counters live in the
registry (one source of truth the exporters, the run ledger, and the
future service tier all read), and the profile classes only add
derived properties and report formatting on top.

:func:`profile_simulation` runs the ``profiled`` variant of the
compiled pipeline (:mod:`repro.uarch.compile`), whose generated code
adds each stage's ``perf_counter`` time to a flat list; unprofiled
variants emit no probe code, so profiled and unprofiled simulators
coexist and the unprofiled hot path is untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    format_snapshot,
)

#: Stage labels the profiled runner times, in cycle order (the
#: generated code fills one ``stage_times`` slot per label).
STAGE_LABELS = ("wakeup", "commit", "select/issue", "rename/dispatch", "fetch")

#: Wall-clock histogram bounds for one campaign cell / fuzz case.
CELL_SECONDS_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)

#: Registry metric names the campaign-side profiles maintain.  The
#: docs-sync suite pins docs/observability.md to this closed list.
CAMPAIGN_METRIC_NAMES = (
    "campaign_cells_total",
    "campaign_instructions_total",
    "campaign_cell_seconds",
    "pool_retries_total",
    "pool_timeouts_total",
    "pool_serial_fallbacks_total",
    "pool_restarts_total",
)

#: Help text of the ``pool_*`` counters :mod:`repro.core.pool` keeps
#: in its caller's registry (a campaign or fuzz profile's, or the
#: service's).
POOL_METRIC_HELP = {
    "pool_retries_total": "Cell/case resubmissions after failure",
    "pool_timeouts_total": "Per-cell timeouts in the worker pool",
    "pool_serial_fallbacks_total":
        "Cells degraded to in-process serial execution",
    "pool_restarts_total":
        "Worker pools replaced after a lost worker or a timeout",
}

#: Registry metric names the fuzz profile maintains.
FUZZ_METRIC_NAMES = (
    "fuzz_cases_total",
    "fuzz_failures_total",
    "fuzz_case_seconds",
)

#: Registry metric names one simulation run records.
SIMULATION_METRIC_NAMES = (
    "sim_instructions_total",
    "sim_cycles_total",
    "sim_wall_seconds_total",
    "sim_ipc",
)


def record_simulation_metrics(registry, stats, seconds,
                              machine: str, workload: str) -> None:
    """Fold one simulation run into a registry.

    The single labeling convention every harness shares: single runs
    (``repro stats``), campaign worker cells, and the fuzzer all
    record through here, so their snapshots merge and read the same
    way.
    """
    labels = {"machine": machine, "workload": workload}
    registry.counter(
        "sim_instructions_total", "Committed instructions simulated"
    ).inc(stats.committed, labels)
    registry.counter(
        "sim_cycles_total", "Machine cycles simulated"
    ).inc(stats.cycles, labels)
    registry.counter(
        "sim_wall_seconds_total", "Host wall-clock spent simulating"
    ).inc(seconds, labels)
    registry.gauge(
        "sim_ipc", "Instructions per cycle of the last run"
    ).set(stats.ipc, labels)


#: Help strings for the pipeline-compiler gauges recorded by
#: :func:`record_compile_metrics`.
_COMPILE_GAUGE_HELP = {
    "compile_runners_total": "Pipeline runners compiled this process",
    "compile_cache_hits_total": "Compile-cache hits this process",
    "compile_stale_discards_total":
        "Stale/corrupted compile-cache entries discarded",
    "compile_fallbacks_total":
        "Unsupported-shape fallbacks (0: every valid config compiles)",
    "compile_seconds_total": "Wall-clock spent generating + exec-compiling",
    "compile_cached_runners": "Runners currently memoized in the cache",
}


#: The pipeline-compiler gauge family (documented in
#: docs/observability.md like the counter families above).
COMPILE_METRIC_NAMES = tuple(_COMPILE_GAUGE_HELP)


def record_compile_metrics(registry) -> None:
    """Fold the pipeline compiler's cache activity into a registry.

    Gauges, not counters: the compile cache is process-global and
    cumulative, so per-run snapshots record its current state rather
    than re-incrementing (which would double-count across runs and
    make jobs=1 vs jobs=N campaign merges diverge -- which is also why
    campaign workers deliberately do *not* ship these).
    """
    from repro.uarch.compile import compile_cache_stats

    snapshot = compile_cache_stats()
    for key, value in snapshot.items():
        name = {
            "compiles": "compile_runners_total",
            "cache_hits": "compile_cache_hits_total",
            "stale_discards": "compile_stale_discards_total",
            "fallbacks": "compile_fallbacks_total",
            "compile_seconds": "compile_seconds_total",
            "cached_runners": "compile_cached_runners",
        }[key]
        registry.gauge(name, _COMPILE_GAUGE_HELP[name]).set(float(value))


class _PoolCountersView:
    """Shared pool-degradation accounting over a registry.

    ``retries`` / ``timeouts`` / ``serial_fallbacks`` / ``restarts``
    read the ``pool_*`` registry counters that
    :mod:`repro.core.pool` increments, so either profile type reports
    them identically."""

    def _get_pool(self, name: str) -> int:
        return int(self.registry.counter(
            name, POOL_METRIC_HELP[name]).value())

    @property
    def retries(self) -> int:
        return self._get_pool("pool_retries_total")

    @property
    def timeouts(self) -> int:
        return self._get_pool("pool_timeouts_total")

    @property
    def serial_fallbacks(self) -> int:
        return self._get_pool("pool_serial_fallbacks_total")

    @property
    def restarts(self) -> int:
        return self._get_pool("pool_restarts_total")

    def snapshot(self) -> MetricsSnapshot:
        """The profile's registry state, frozen for merge/export."""
        return self.registry.snapshot()

    def format_metrics(self) -> str:
        """The shared snapshot rendering (``repro stats`` parity)."""
        return format_snapshot(self.snapshot())


@dataclass
class ProfileReport:
    """Wall-clock accounting of one simulator run.

    Attributes:
        wall_seconds: End-to-end run() time.
        instructions: Committed instructions.
        cycles: Simulated cycles.
        stage_seconds: Python time per pipeline stage (label -> s).
    """

    wall_seconds: float = 0.0
    instructions: int = 0
    cycles: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def instructions_per_second(self) -> float:
        """Simulated instructions per host second (0.0 when no time
        has accrued -- an empty profile never raises)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.instructions / self.wall_seconds

    @property
    def cycles_per_second(self) -> float:
        """Simulated cycles per host second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cycles / self.wall_seconds

    @property
    def overhead_seconds(self) -> float:
        """Run time outside the sampled stages (main loop,
        stats bookkeeping, and the samplers themselves)."""
        return max(0.0, self.wall_seconds - sum(self.stage_seconds.values()))

    def snapshot(self) -> MetricsSnapshot:
        """This run as a metrics snapshot.

        Stage timings accumulate in a plain dict during the run (a
        registry lookup per stage call would tax the loop being
        measured) and are folded into registry form on demand here.
        """
        registry = MetricsRegistry()
        registry.counter(
            "sim_instructions_total", "Committed instructions simulated"
        ).inc(self.instructions)
        registry.counter(
            "sim_cycles_total", "Machine cycles simulated"
        ).inc(self.cycles)
        registry.counter(
            "sim_wall_seconds_total", "Host wall-clock spent simulating"
        ).inc(self.wall_seconds)
        stage_counter = registry.counter(
            "profile_stage_seconds_total",
            "Host seconds inside each instrumented pipeline stage",
        )
        for label, seconds in self.stage_seconds.items():
            stage_counter.inc(seconds, {"stage": label})
        return registry.snapshot()

    def format_report(self) -> str:
        """Aligned text report of throughput and the stage breakdown."""
        lines = [
            f"  {self.instructions:,} instructions / {self.cycles:,} cycles "
            f"in {self.wall_seconds:.3f} s host time",
            f"  {self.instructions_per_second:,.0f} simulated "
            f"instructions/s, {self.cycles_per_second:,.0f} cycles/s",
        ]
        total = self.wall_seconds or 1.0
        for label, seconds in sorted(
            self.stage_seconds.items(), key=lambda item: -item[1]
        ):
            lines.append(
                f"    {label:16s} {seconds:8.3f} s  ({100 * seconds / total:5.1f}%)"
            )
        lines.append(
            f"    {'(other)':16s} {self.overhead_seconds:8.3f} s  "
            f"({100 * self.overhead_seconds / total:5.1f}%)"
        )
        return "\n".join(lines)


def profile_simulation(config, trace, max_cycles=None, tracer=None,
                       registry=None):
    """Run one simulation with per-stage host-time sampling.

    The run goes through the ``profiled`` compiled-runner variant;
    statistics are identical to an unprofiled run.

    Args:
        config: A :class:`~repro.uarch.config.MachineConfig`.
        trace: The dynamic trace to replay.
        max_cycles: Forwarded to ``PipelineSimulator.run``.
        tracer: Optional event tracer (to profile tracing overhead).
        registry: Optional :class:`MetricsRegistry` the run is also
            recorded into (via :func:`record_simulation_metrics`).

    Returns:
        ``(stats, report)`` -- the run's
        :class:`~repro.uarch.stats.SimStats` and the
        :class:`ProfileReport`.
    """
    # Imported here: the pipeline imports repro.obs.events at module
    # load, so a top-level import would be circular.
    from repro.uarch.pipeline import PipelineSimulator

    simulator = PipelineSimulator(config, trace, tracer=tracer)
    simulator.stage_times = [0.0] * len(STAGE_LABELS)
    report = ProfileReport()
    start = time.perf_counter()
    stats = simulator.run(max_cycles=max_cycles)
    report.wall_seconds = time.perf_counter() - start
    report.stage_seconds = dict(zip(STAGE_LABELS, simulator.stage_times))
    report.instructions = stats.committed
    report.cycles = stats.cycles
    if registry is not None:
        record_simulation_metrics(
            registry, stats, report.wall_seconds,
            machine=getattr(config, "name", "unknown"),
            workload=getattr(trace, "name", "unknown"),
        )
    return stats, report


@dataclass
class CellTiming:
    """Wall-clock record of one campaign cell.

    Attributes:
        label: ``machine/workload`` identifier.
        seconds: Simulation wall-clock (0.0 for cache hits).
        instructions: Committed instructions in the cell.
        source: ``"simulated"`` or ``"cache"``.
    """

    label: str
    seconds: float
    instructions: int
    source: str = "simulated"


@dataclass
class CampaignProfile(_PoolCountersView):
    """Observability record of one campaign run -- a registry view.

    The campaign engine (:mod:`repro.core.campaign`) reports every
    cell here as it completes -- cache hit or simulation, with
    per-cell wall-clock -- plus the failure-handling counters, so a
    run can answer "what did the cache save?", "did anything retry or
    degrade to serial?", and "how many simulated instructions per
    host second did the fleet sustain?".  All counts live in
    :attr:`registry`; worker-side snapshots merge into it through
    :meth:`merge_worker_snapshot`.
    """

    jobs: int = 1
    wall_seconds: float = 0.0
    #: Per-cell detail, kept for slowest-cell reporting (the counts
    #: themselves come from the registry).
    cells: list[CellTiming] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def note_cell(self, label: str, seconds: float, instructions: int,
                  source: str = "simulated") -> None:
        """Record one completed cell."""
        self.cells.append(CellTiming(label, seconds, instructions, source))
        labels = {"source": source}
        self.registry.counter(
            "campaign_cells_total", "Campaign cells completed, by source"
        ).inc(1, labels)
        self.registry.counter(
            "campaign_instructions_total",
            "Committed instructions per cell, by source",
        ).inc(instructions, labels)
        self.registry.histogram(
            "campaign_cell_seconds", "Wall-clock per campaign cell",
            buckets=CELL_SECONDS_BUCKETS,
        ).observe(seconds, labels)

    def merge_worker_snapshot(self, payload: dict | None) -> None:
        """Fold one worker's metrics-snapshot document into the
        registry (the parent-side half of the exact-merge contract;
        callers feed payloads in deterministic presentation order)."""
        if not payload:
            return
        self.registry.merge_snapshot(MetricsSnapshot.from_dict(payload))

    @property
    def cell_count(self) -> int:
        """All cells, cached and simulated."""
        return int(self.registry.value("campaign_cells_total",
                                       {"source": "cache"})
                   + self.registry.value("campaign_cells_total",
                                         {"source": "simulated"}))

    @property
    def cache_hits(self) -> int:
        """Cells satisfied from the result cache."""
        return int(self.registry.value("campaign_cells_total",
                                       {"source": "cache"}))

    @property
    def simulated_cells(self) -> int:
        """Cells that actually ran the simulator."""
        return self.cell_count - self.cache_hits

    @property
    def simulated_instructions(self) -> int:
        """Committed instructions across simulated (non-cached) cells."""
        return int(self.registry.value("campaign_instructions_total",
                                       {"source": "simulated"}))

    @property
    def instructions_per_second(self) -> float:
        """Simulated instructions per host second of campaign wall
        (0.0 when no time has accrued -- never a ZeroDivisionError)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.simulated_instructions / self.wall_seconds

    def to_dict(self) -> dict:
        """JSON-ready primitives (for the metrics exporters)."""
        return {
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cell_count": self.cell_count,
            "cache_hits": self.cache_hits,
            "simulated_cells": self.simulated_cells,
            "simulated_instructions": self.simulated_instructions,
            "instructions_per_second": self.instructions_per_second,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "serial_fallbacks": self.serial_fallbacks,
            "restarts": self.restarts,
            "cells": [
                {
                    "label": cell.label,
                    "seconds": cell.seconds,
                    "instructions": cell.instructions,
                    "source": cell.source,
                }
                for cell in self.cells
            ],
            "metrics": self.snapshot().to_dict(),
        }

    def format_report(self) -> str:
        """Aligned text summary of the campaign run."""
        lines = [
            f"  {self.cell_count} cells ({self.cache_hits} cache hits, "
            f"{self.simulated_cells} simulated) on {self.jobs} "
            f"worker{'s' if self.jobs != 1 else ''} "
            f"in {self.wall_seconds:.3f} s",
            f"  {self.simulated_instructions:,} simulated instructions "
            f"({self.instructions_per_second:,.0f}/s)",
        ]
        if (self.retries or self.timeouts or self.serial_fallbacks
                or self.restarts):
            lines.append(
                f"  degradation: {self.timeouts} timeouts, "
                f"{self.retries} retries, "
                f"{self.serial_fallbacks} serial fallbacks, "
                f"{self.restarts} pool restarts"
            )
        slowest = sorted(
            (c for c in self.cells if c.source != "cache"),
            key=lambda c: -c.seconds,
        )[:5]
        for cell in slowest:
            lines.append(f"    {cell.label:40s} {cell.seconds:8.3f} s")
        return "\n".join(lines)


@dataclass
class FuzzProfile(_PoolCountersView):
    """Observability record of one differential-fuzzing campaign.

    The fuzzer (:mod:`repro.verify.fuzzer`) reports every case here:
    which machine shape and workload kind it sampled, how long it
    took, and whether any check failed.  Counts live in
    :attr:`registry`; the pool-degradation counters (``retries`` /
    ``timeouts`` / ``serial_fallbacks`` / ``restarts``) are the same
    registry series :class:`CampaignProfile` uses, so the shared
    worker pool (:mod:`repro.core.pool`) accounts into either profile
    type identically.
    """

    jobs: int = 1
    seed: int = 0
    wall_seconds: float = 0.0
    #: Cases skipped because the time budget ran out.
    skipped: int = 0
    #: Per-case wall-clock, in execution order.
    case_seconds: list[float] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def note_case(self, shape: str, kind: str, seconds: float,
                  failed: bool) -> None:
        """Record one executed case."""
        self.case_seconds.append(seconds)
        self.registry.counter(
            "fuzz_cases_total", "Fuzz cases executed, by shape and kind"
        ).inc(1, {"shape": shape, "kind": kind})
        self.registry.histogram(
            "fuzz_case_seconds", "Wall-clock per fuzz case",
            buckets=CELL_SECONDS_BUCKETS,
        ).observe(seconds)
        if failed:
            self.registry.counter(
                "fuzz_failures_total", "Fuzz cases with failing checks"
            ).inc(1)

    @property
    def shape_counts(self) -> dict[str, int]:
        """Sampled machine shapes -> case counts (coverage evidence)."""
        counts: dict[str, int] = {}
        for labels, value in self.registry.labeled_values(
                "fuzz_cases_total").items():
            shape = dict(labels)["shape"]
            counts[shape] = counts.get(shape, 0) + int(value)
        return dict(sorted(counts.items()))

    @property
    def kind_counts(self) -> dict[str, int]:
        """Workload kinds ("program"/"synthetic") -> case counts."""
        counts: dict[str, int] = {}
        for labels, value in self.registry.labeled_values(
                "fuzz_cases_total").items():
            kind = dict(labels)["kind"]
            counts[kind] = counts.get(kind, 0) + int(value)
        return dict(sorted(counts.items()))

    @property
    def failures(self) -> int:
        """Cases with at least one failing check."""
        return int(self.registry.value("fuzz_failures_total"))

    @property
    def cases(self) -> int:
        """Cases actually executed (excludes budget skips)."""
        return len(self.case_seconds)

    @property
    def cases_per_second(self) -> float:
        """Executed cases per host second of campaign wall-clock
        (0.0 when no time has accrued -- never a ZeroDivisionError)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cases / self.wall_seconds

    def to_dict(self) -> dict:
        """JSON-ready primitives (for the metrics exporters)."""
        return {
            "jobs": self.jobs,
            "seed": self.seed,
            "wall_seconds": self.wall_seconds,
            "cases": self.cases,
            "cases_per_second": self.cases_per_second,
            "failures": self.failures,
            "skipped": self.skipped,
            "shape_counts": self.shape_counts,
            "kind_counts": self.kind_counts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "serial_fallbacks": self.serial_fallbacks,
            "restarts": self.restarts,
            "metrics": self.snapshot().to_dict(),
        }

    def format_report(self) -> str:
        """Aligned text summary of the fuzzing campaign."""
        lines = [
            f"  {self.cases} cases on {self.jobs} "
            f"worker{'s' if self.jobs != 1 else ''} "
            f"in {self.wall_seconds:.2f} s "
            f"({self.cases_per_second:.1f} cases/s), seed {self.seed}",
            f"  {self.failures} failing case"
            f"{'' if self.failures == 1 else 's'}"
            + (f", {self.skipped} skipped (time budget)" if self.skipped
               else ""),
        ]
        shapes = ", ".join(
            f"{name} x{count}"
            for name, count in self.shape_counts.items()
        )
        kinds = ", ".join(
            f"{name} x{count}"
            for name, count in self.kind_counts.items()
        )
        lines.append(f"  shapes: {shapes or '(none)'}")
        lines.append(f"  workloads: {kinds or '(none)'}")
        if (self.retries or self.timeouts or self.serial_fallbacks
                or self.restarts):
            lines.append(
                f"  degradation: {self.timeouts} timeouts, "
                f"{self.retries} retries, "
                f"{self.serial_fallbacks} serial fallbacks, "
                f"{self.restarts} pool restarts"
            )
        return "\n".join(lines)


def profile_run(runner, *args, **kwargs):
    """Time an arbitrary callable returning SimStats-like results.

    A thin convenience for harnesses that already own the simulation
    call: ``stats, seconds = profile_run(simulate, config, trace)``.
    """
    start = time.perf_counter()
    result = runner(*args, **kwargs)
    return result, time.perf_counter() - start
