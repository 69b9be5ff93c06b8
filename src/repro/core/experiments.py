"""The paper's simulated figures: their machine grids and results.

:func:`figure_configs` names the machines each figure compares.
Running one is ``run_campaign(figure_configs(which), name=which)``
(:mod:`repro.core.campaign`), which returns an
:class:`ExperimentResult` whose rows mirror the figure's bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import machines as machine_factories
from repro.core.aggregate import arithmetic_mean
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats

#: Default dynamic instructions per benchmark.  The paper ran up to
#: 0.5 B; these kernels reach steady state within a few thousand.
DEFAULT_INSTRUCTIONS = 20_000


@dataclass
class ExperimentResult:
    """Results of one experiment: stats per (machine, workload).

    Attributes:
        name: Experiment identifier (e.g. ``"fig13"``).
        machine_names: Machines in presentation order.
        workloads: Benchmarks in presentation order.
        stats: ``stats[machine_name][workload]``.
    """

    name: str
    machine_names: list[str]
    workloads: list[str]
    stats: dict[str, dict[str, SimStats]] = field(default_factory=dict)

    def ipc(self, machine_name: str, workload: str) -> float:
        """IPC of one cell."""
        return self.stats[machine_name][workload].ipc

    def ipc_table(self) -> dict[str, dict[str, float]]:
        """IPC per machine per workload."""
        return {
            machine: {w: self.stats[machine][w].ipc for w in self.workloads}
            for machine in self.machine_names
        }

    def relative_ipc(self, machine_name: str, reference: str) -> dict[str, float]:
        """Per-workload IPC of ``machine_name`` relative to ``reference``."""
        return {
            w: self.ipc(machine_name, w) / self.ipc(reference, w)
            for w in self.workloads
        }

    def mean_relative_ipc(self, machine_name: str, reference: str) -> float:
        """Arithmetic-mean relative IPC across workloads."""
        ratios = self.relative_ipc(machine_name, reference)
        return arithmetic_mean(ratios.values())

    def bypass_frequency(self, machine_name: str) -> dict[str, float]:
        """Per-workload inter-cluster bypass frequency (Figure 17)."""
        return {
            w: self.stats[machine_name][w].inter_cluster_bypass_frequency
            for w in self.workloads
        }

    def format_table(self, metric: str = "ipc") -> str:
        """Render the result as an aligned text table."""
        header = f"{'machine':36s}" + "".join(f"{w:>10s}" for w in self.workloads)
        lines = [header]
        for machine in self.machine_names:
            cells = []
            for workload in self.workloads:
                stats = self.stats[machine][workload]
                if metric == "ipc":
                    cells.append(f"{stats.ipc:10.3f}")
                elif metric == "bypass":
                    cells.append(f"{stats.inter_cluster_bypass_frequency * 100:9.1f}%")
                else:
                    raise ValueError(f"unknown metric {metric!r}")
            lines.append(f"{machine:36s}" + "".join(cells))
        return "\n".join(lines)


def figure_configs(which: str) -> dict[str, MachineConfig]:
    """The (name -> config) grid of one of the simulated figures.

    The paper's results, which the simulated grids are checked
    against:

    * ``fig13`` -- baseline window vs. single-cluster dependence-based.
      The dependence-based machine extracts similar parallelism:
      within 5% for five of seven benchmarks, worst case 8% (li).
    * ``fig15`` -- baseline vs. the 2x4-way clustered dependence-based
      machine with 2-cycle inter-cluster bypasses.  Nearly as
      effective; worst cases m88ksim (-12%) and compress (-9%), due
      to inter-cluster bypass latency.  Section 5.5 combines this
      grid with the clock ratio
      (:func:`repro.core.speedup.clock_adjusted_speedup`).
    * ``fig17`` -- the five clustered organisations (IPC and
      inter-cluster bypass frequency).  Random steering degrades
      17-26%; execution-driven steering is nearly ideal (max 6% loss)
      but needs a central window; both dispatch-steered machines are
      competitive; bypass frequency anti-correlates with IPC.

    Args:
        which: ``"fig13"``, ``"fig15"``, or ``"fig17"``.

    Raises:
        KeyError: for an unknown figure name.
    """
    grids = {
        "fig13": lambda: {
            "baseline": machine_factories.baseline_8way(),
            "dependence-based": machine_factories.dependence_based_8way(),
        },
        "fig15": lambda: {
            "window-based 8-way": machine_factories.baseline_8way(),
            "2-cluster dependence-based":
                machine_factories.clustered_dependence_8way(),
        },
        "fig17": machine_factories.fig17_machines,
    }
    if which not in grids:
        known = ", ".join(sorted(grids))
        raise KeyError(f"unknown figure {which!r} (known: {known})")
    return grids[which]()

