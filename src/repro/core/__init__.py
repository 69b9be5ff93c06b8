"""High-level API: machine factories, experiments, and speedups.

* :mod:`repro.core.machines` -- factory functions for every machine
  configuration the paper simulates (Figures 13, 15, and 17).
* :mod:`repro.core.experiments` -- each simulated figure's machine
  grid by registry key (:func:`figure_configs`) and the result type
  :func:`repro.core.campaign.run_campaign` returns.
* :mod:`repro.core.speedup` -- the Section 5.5 clock-adjusted
  performance comparison.
* :mod:`repro.core.frontier` -- the complexity-effectiveness
  frontier: :func:`frontier_point` (a machine at a technology node,
  IPC x clock) and the all-shapes x all-technologies sweep.
* :mod:`repro.core.aggregate` -- the shared mean reductions.
"""

from repro.core.machines import (
    baseline_8way,
    clustered_dependence_8way,
    clustered_exec_steer_8way,
    clustered_least_loaded_8way,
    clustered_modulo_8way,
    clustered_random_8way,
    clustered_windows_8way,
    dependence_based_8way,
)
from repro.core.experiments import ExperimentResult
from repro.core.speedup import clock_adjusted_speedup
from repro.core.aggregate import arithmetic_mean, geometric_mean, mean_ipc
from repro.core.frontier import (
    FrontierPoint,
    conventional_frontier,
    dependence_based_point,
    design_space_frontier,
    format_frontier,
    frontier_point,
    issue_width_frontier,
    sweep_frontier,
)

__all__ = [
    "baseline_8way",
    "dependence_based_8way",
    "clustered_dependence_8way",
    "clustered_windows_8way",
    "clustered_exec_steer_8way",
    "clustered_modulo_8way",
    "clustered_least_loaded_8way",
    "clustered_random_8way",
    "ExperimentResult",
    "clock_adjusted_speedup",
    "FrontierPoint",
    "conventional_frontier",
    "dependence_based_point",
    "design_space_frontier",
    "issue_width_frontier",
    "format_frontier",
    "frontier_point",
    "sweep_frontier",
    "geometric_mean",
    "arithmetic_mean",
    "mean_ipc",
]
