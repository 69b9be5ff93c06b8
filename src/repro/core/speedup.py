"""Clock-adjusted performance comparison (Section 5.5).

IPC alone understates the dependence-based design: its simplified
wakeup/select logic supports a faster clock.  The paper combines the
Figure 15 IPC results with the Table 2 delay ratio -- at 0.18 um the
window-based 8-way machine's clock is bounded by its 8-way/64-entry
window logic (724 ps) while the clustered dependence-based machine is
bounded by at most a 4-way/32-entry cluster's window logic (578 ps) --
for a 1.25x clock advantage, yielding overall speedups of 10-22%
(mean 16%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.aggregate import arithmetic_mean
from repro.core.experiments import ExperimentResult
from repro.delay.summary import clock_ratio_dependence_based
from repro.technology.params import TECH_018, Technology


@dataclass(frozen=True)
class SpeedupSummary:
    """Clock-adjusted speedups of the dependence-based machine."""

    tech: Technology
    clock_ratio: float
    per_workload: dict[str, float]

    @property
    def mean(self) -> float:
        """Arithmetic-mean speedup across workloads."""
        return arithmetic_mean(self.per_workload.values())

    @property
    def min(self) -> float:
        return min(self.per_workload.values())

    @property
    def max(self) -> float:
        return max(self.per_workload.values())

    def format_table(self) -> str:
        """Aligned text table of per-benchmark speedups."""
        lines = [f"clock ratio (f_dep/f_win) = {self.clock_ratio:.3f}"]
        for workload, speedup in self.per_workload.items():
            lines.append(f"  {workload:10s} {100 * (speedup - 1):+6.1f}%")
        lines.append(f"  {'mean':10s} {100 * (self.mean - 1):+6.1f}%")
        return "\n".join(lines)


def clock_adjusted_speedup(
    result: ExperimentResult,
    dependence_machine: str,
    window_machine: str,
    tech: Technology = TECH_018,
) -> SpeedupSummary:
    """Combine relative IPC with the Table 2 clock ratio.

    Args:
        result: An experiment containing both machines (e.g. fig15).
        dependence_machine: Name of the dependence-based machine row.
        window_machine: Name of the window-based reference row.
        tech: Technology whose delay models set the clock ratio.

    Returns:
        Per-workload speedups ``(IPC_dep / IPC_win) * (f_dep / f_win)``.
    """
    ratio = clock_ratio_dependence_based(tech)
    relative = result.relative_ipc(dependence_machine, window_machine)
    return SpeedupSummary(
        tech=tech,
        clock_ratio=ratio,
        per_workload={w: ipc_ratio * ratio for w, ipc_ratio in relative.items()},
    )

