"""The complexity-effectiveness frontier: IPC x clock vs window size.

The paper's framing: growing the issue window raises IPC but slows
the clock (wakeup + select delay grows with window size), so *true*
performance -- instructions per second -- peaks somewhere, and a
microarchitecture that breaks the trade-off (the dependence-based
design) can sit above the whole curve.  This module sweeps the
conventional design space and places the dependence-based machine on
the same axes; :func:`design_space_frontier` extends the sweep to
every registered machine shape at every technology node.

Every point, here and in the service, is built by
:func:`frontier_point`: one :func:`~repro.delay.critical_path.critical_path`
for the clock (the slower of rename and window logic; bypass is
excluded from the bound because the paper's remedy for it --
clustering -- is evaluated separately, the same accounting Section
5.5 uses) and one :func:`~repro.core.aggregate.mean_ipc` for the IPC.
:func:`sweep_frontier` gets the IPC from the campaign engine with full
result caching, so a warm-cache sweep re-runs zero simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.core.aggregate import mean_ipc
from repro.core.experiments import DEFAULT_INSTRUCTIONS
from repro.core.machines import (
    baseline_8way,
    dependence_based_8way,
    machine_registry,
)
from repro.delay.critical_path import critical_path
from repro.obs.profiling import CampaignProfile
from repro.technology.params import TECH_018, TECHNOLOGIES, Technology
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats
from repro.workloads import WORKLOAD_NAMES

#: Window sizes swept for the conventional curve.
DEFAULT_WINDOW_SIZES = (8, 16, 32, 64, 128)


@dataclass(frozen=True)
class FrontierPoint:
    """One design point on the IPC-vs-clock trade-off."""

    label: str
    window_size: int
    mean_ipc: float
    clock_ps: float
    #: Technology node label (empty for hand-built points).
    tech: str = ""
    #: Label of the structure that sets the clock (empty if unknown).
    bounded_by: str = ""

    @property
    def frequency_ghz(self) -> float:
        """Clock frequency implied by the critical delay."""
        return 1000.0 / self.clock_ps

    @property
    def bips(self) -> float:
        """Billions of instructions per second: IPC x frequency."""
        return self.mean_ipc * self.frequency_ghz


def frontier_point(
    label: str,
    config: MachineConfig,
    tech: Technology,
    stats_by_workload: Mapping[str, SimStats],
) -> FrontierPoint:
    """``config`` at ``tech``: the mean IPC of its simulated workloads
    and the clock of its critical path."""
    path = critical_path(config, tech)
    return FrontierPoint(
        label=label,
        window_size=config.total_capacity,
        mean_ipc=mean_ipc(stats_by_workload),
        clock_ps=path.clock_ps,
        tech=tech.name,
        bounded_by=path.bounding_structure.label,
    )


def sweep_frontier(
    points: Sequence[tuple[str, MachineConfig, Technology]],
    workloads: tuple[str, ...],
    max_instructions: int,
    name: str,
    **campaign_options: Any,
) -> tuple[list[FrontierPoint], CampaignProfile]:
    """Simulate and clock a list of ``(label, config, tech)`` points.

    Each distinct config is simulated once over the workload grid on
    the campaign engine (IPC does not depend on the technology node);
    every point sharing it reuses those statistics at its own clock.
    Extra keyword arguments (``jobs``, ``cache``, ``timeout``,
    ``retries``, ``progress``, ``heartbeat``, ``runner``) are forwarded to
    :func:`~repro.core.campaign.run_campaign`.

    Returns:
        ``(frontier, profile)``, the points in the order given.
    """
    # Imported here, not at module top, so ``import repro.core`` does
    # not load the campaign engine and its worker pool.
    from repro.core.campaign import run_campaign

    sim_names: dict[MachineConfig, str] = {}
    for _label, config, _tech in points:
        sim_names.setdefault(config, f"design-{len(sim_names)}")
    result, profile = run_campaign(
        {sim_name: config for config, sim_name in sim_names.items()},
        workloads=workloads,
        max_instructions=max_instructions,
        name=name,
        **campaign_options,
    )
    # Sweep-shape gauges: how much config sharing the distinct-config
    # dedup bought (the frontier CLI and the run ledger surface these).
    profile.registry.gauge(
        "design_points", "Design points in the sweep (configs x techs)"
    ).set(len(points))
    profile.registry.gauge(
        "design_distinct_configs",
        "Distinct machine configs actually simulated",
    ).set(len(sim_names))
    frontier = [
        frontier_point(label, config, tech, result.stats[sim_names[config]])
        for label, config, tech in points
    ]
    return frontier, profile


def conventional_frontier(
    tech: Technology = TECH_018,
    issue_width: int = 8,
    window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    max_instructions: int = DEFAULT_INSTRUCTIONS,
    **campaign_options: Any,
) -> list[FrontierPoint]:
    """Sweep conventional window sizes; IPC from simulation, clock
    from the critical-path layer.  Extra keyword arguments (``jobs``,
    ``cache``, ...) reach :func:`~repro.core.campaign.run_campaign`."""
    points = [
        (f"window-{window_size}",
         baseline_8way(window_size=window_size, issue_width=issue_width),
         tech)
        for window_size in window_sizes
    ]
    frontier, _profile = sweep_frontier(
        points, workloads, max_instructions,
        name="conventional-frontier", **campaign_options,
    )
    return frontier


def dependence_based_point(
    tech: Technology = TECH_018,
    issue_width: int = 8,
    fifo_count: int = 8,
    fifo_depth: int = 8,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    max_instructions: int = DEFAULT_INSTRUCTIONS,
    **campaign_options: Any,
) -> FrontierPoint:
    """The dependence-based machine on the same axes."""
    config = dependence_based_8way(
        fifo_count=fifo_count, fifo_depth=fifo_depth, issue_width=issue_width
    )
    frontier, _profile = sweep_frontier(
        [(f"dependence-{fifo_count}x{fifo_depth}", config, tech)],
        workloads, max_instructions,
        name="dependence-point", **campaign_options,
    )
    return frontier[0]


def issue_width_frontier(
    tech: Technology = TECH_018,
    issue_widths: tuple[int, ...] = (2, 4, 8),
    window_per_width: int = 8,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    max_instructions: int = DEFAULT_INSTRUCTIONS,
    **campaign_options: Any,
) -> list[FrontierPoint]:
    """Sweep the other complexity axis: issue width.

    Window size scales with width (the paper pairs 4-way/32 with
    8-way/64, i.e. eight entries per issue slot), as do the machine's
    fetch/dispatch/retire widths and functional units.  IPC gains
    flatten while window-logic delay keeps growing -- the "brainiac"
    half of the paper's introduction.
    """
    from repro.uarch.config import ClusterConfig, SteeringPolicy

    points = []
    for width in issue_widths:
        window_size = window_per_width * width
        config = MachineConfig(
            name=f"conventional-{width}way",
            fetch_width=width,
            dispatch_width=width,
            issue_width=width,
            retire_width=2 * width,
            clusters=(ClusterConfig(window_size=window_size, fu_count=width),),
            steering=SteeringPolicy.NONE,
        )
        points.append((f"{width}-way/{window_size}", config, tech))
    frontier, _profile = sweep_frontier(
        points, workloads, max_instructions,
        name="issue-width-frontier", **campaign_options,
    )
    return frontier


def design_space_frontier(
    techs: Sequence[Technology] = TECHNOLOGIES,
    machines: Mapping[str, MachineConfig] | None = None,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    max_instructions: int = DEFAULT_INSTRUCTIONS,
    **campaign_options: Any,
) -> tuple[list[FrontierPoint], CampaignProfile]:
    """Sweep every registered machine shape at every technology node.

    Each distinct config is simulated once over the workload grid (IPC
    is technology-independent); with a warm cache the whole sweep
    re-runs zero simulations.  Returns the BIPS frontier points,
    labelled ``<machine>@<tech>`` in technology-major order, and the
    campaign profile (whose ``simulated_cells`` count the CI smoke
    test asserts on).
    """
    if machines is None:
        machines = machine_registry()
    points = [
        (f"{name}@{tech.name}", config, tech)
        for tech in techs
        for name, config in machines.items()
    ]
    return sweep_frontier(
        points, workloads, max_instructions,
        name="design-space-frontier", **campaign_options,
    )


def format_frontier(points: list[FrontierPoint]) -> str:
    """Aligned text table of frontier points.

    Adds technology and clock-bound columns when the points carry
    them (multi-technology sweeps).
    """
    show_tech = any(point.tech for point in points)
    width = max([20] + [len(point.label) for point in points])
    header = f"{'design':>{width}s}"
    if show_tech:
        header += f"{'tech':>8s}"
    header += f"{'IPC':>8s}{'clock ps':>10s}{'GHz':>8s}{'BIPS':>8s}"
    if show_tech:
        header += f"  {'bounded by'}"
    lines = [header]
    for point in points:
        line = f"{point.label:>{width}s}"
        if show_tech:
            line += f"{point.tech:>8s}"
        line += (
            f"{point.mean_ipc:8.3f}{point.clock_ps:10.1f}"
            f"{point.frequency_ghz:8.2f}{point.bips:8.2f}"
        )
        if show_tech and point.bounded_by:
            line += f"  {point.bounded_by}"
        lines.append(line)
    return "\n".join(lines)
