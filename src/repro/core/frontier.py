"""The complexity-effectiveness frontier: IPC x clock vs window size.

The paper's framing: growing the issue window raises IPC but slows
the clock (wakeup + select delay grows with window size), so *true*
performance -- instructions per second -- peaks somewhere, and a
microarchitecture that breaks the trade-off (the dependence-based
design) can sit above the whole curve.  This module sweeps the
conventional design space and places the dependence-based machine on
the same axes; :func:`design_space_frontier` extends the sweep to
every registered machine shape at every technology node.

All clock arithmetic is delegated: each frontier point is a
:class:`~repro.core.design.DesignPoint` whose clock comes from
:mod:`repro.delay.critical_path` (the slower of rename and window
logic; bypass is excluded from the bound because the paper's remedy
for it -- clustering -- is evaluated separately, the same accounting
Section 5.5 uses).  IPC comes from the campaign engine with full
result caching, so a warm-cache sweep re-runs zero simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.core.design import DesignPoint, SweptDesign, sweep_design_points
from repro.core.machines import (
    baseline_8way,
    dependence_based_8way,
    machine_registry,
)
from repro.obs.profiling import CampaignProfile
from repro.technology.params import TECH_018, TECHNOLOGIES, Technology
from repro.uarch.config import MachineConfig
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
    #: Technology node label (empty for single-technology sweeps).
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


def _to_point(swept: SweptDesign, label: str, window_size: int) -> FrontierPoint:
    path = swept.point.critical_path()
    return FrontierPoint(
        label=label,
        window_size=window_size,
        mean_ipc=swept.mean_ipc,
        clock_ps=path.clock_ps,
        tech=swept.point.tech.name,
        bounded_by=path.bounding_structure.label,
    )


def _sweep_one_tech(
    configs: Mapping[str, MachineConfig],
    tech: Technology,
    workloads: tuple[str, ...],
    max_instructions: int,
    name: str,
    **campaign_options: Any,
) -> list[SweptDesign]:
    points = [
        (label, DesignPoint(config=config, tech=tech))
        for label, config in configs.items()
    ]
    swept, _profile = sweep_design_points(
        points,
        workloads=workloads,
        max_instructions=max_instructions,
        name=name,
        **campaign_options,
    )
    return swept


def conventional_frontier(
    tech: Technology = TECH_018,
    issue_width: int = 8,
    window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    max_instructions: int = 10_000,
    **campaign_options: Any,
) -> list[FrontierPoint]:
    """Sweep conventional window sizes; IPC from simulation, clock
    from the critical-path layer.  Extra keyword arguments (``jobs``,
    ``cache``, ...) reach :func:`~repro.core.campaign.run_campaign`."""
    configs = {
        f"window-{window_size}": baseline_8way(
            window_size=window_size, issue_width=issue_width
        )
        for window_size in window_sizes
    }
    swept = _sweep_one_tech(
        configs, tech, workloads, max_instructions,
        name="conventional-frontier", **campaign_options,
    )
    return [
        _to_point(item, label=f"window-{window_size}", window_size=window_size)
        for window_size, item in zip(window_sizes, swept)
    ]


def dependence_based_point(
    tech: Technology = TECH_018,
    issue_width: int = 8,
    fifo_count: int = 8,
    fifo_depth: int = 8,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    max_instructions: int = 10_000,
    **campaign_options: Any,
) -> FrontierPoint:
    """The dependence-based machine on the same axes."""
    config = dependence_based_8way(
        fifo_count=fifo_count, fifo_depth=fifo_depth, issue_width=issue_width
    )
    label = f"dependence-{fifo_count}x{fifo_depth}"
    swept = _sweep_one_tech(
        {label: config}, tech, workloads, max_instructions,
        name="dependence-point", **campaign_options,
    )
    return _to_point(
        swept[0], label=label, window_size=fifo_count * fifo_depth
    )


def issue_width_frontier(
    tech: Technology = TECH_018,
    issue_widths: tuple[int, ...] = (2, 4, 8),
    window_per_width: int = 8,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    max_instructions: int = 10_000,
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

    configs = {}
    for width in issue_widths:
        window_size = window_per_width * width
        configs[f"{width}-way/{window_size}"] = MachineConfig(
            name=f"conventional-{width}way",
            fetch_width=width,
            dispatch_width=width,
            issue_width=width,
            retire_width=2 * width,
            clusters=(ClusterConfig(window_size=window_size, fu_count=width),),
            steering=SteeringPolicy.NONE,
        )
    swept = _sweep_one_tech(
        configs, tech, workloads, max_instructions,
        name="issue-width-frontier", **campaign_options,
    )
    return [
        _to_point(item, label=label, window_size=config.total_capacity)
        for (label, config), item in zip(configs.items(), swept)
    ]


def design_space_frontier(
    techs: Sequence[Technology] = TECHNOLOGIES,
    machines: Mapping[str, MachineConfig] | None = None,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    max_instructions: int = 10_000,
    **campaign_options: Any,
) -> tuple[list[FrontierPoint], CampaignProfile]:
    """Sweep every registered machine shape at every technology node.

    Each distinct config is simulated once over the workload grid (IPC
    is technology-independent); with a warm cache the whole sweep
    re-runs zero simulations.  Returns the BIPS frontier points, in
    technology-major order, and the campaign profile (whose
    ``simulated_cells`` count the CI smoke test asserts on).
    """
    if machines is None:
        machines = machine_registry()
    points = [
        (f"{name}@{tech.name}", DesignPoint(config=config, tech=tech))
        for tech in techs
        for name, config in machines.items()
    ]
    swept, profile = sweep_design_points(
        points,
        workloads=workloads,
        max_instructions=max_instructions,
        name="design-space-frontier",
        **campaign_options,
    )
    frontier = [
        _to_point(
            item,
            label=item.label,
            window_size=item.point.config.total_capacity,
        )
        for item in swept
    ]
    return frontier, profile


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
