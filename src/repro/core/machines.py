"""Machine configurations for every design point in the paper.

All machines share the Table 3 resources: 8-wide fetch/decode/issue,
retire width 16, 128 in-flight instructions, 120 int + 120 fp physical
registers, 8 symmetric single-cycle functional units, gshare, and the
32 KB 2-way data cache.  They differ only in how the issue buffers are
organised and how instructions are steered.

A machine's one name in code is its :data:`MACHINE_REGISTRY` key: the
figure grids, campaign cells, results, metrics labels, the service and
the CLI all use it.  The row labels EXPERIMENTS.md prints live in one
table, :data:`repro.core.experiments.ROW_LABELS`.  What each key
serves:

* ``baseline`` -- one 64-entry window (Table 3); the reference row of
  Figures 13, 15 and 17, Section 5.5 and the steering ablation.
* ``dependence`` -- 8 FIFOs x 8 deep in one cluster; Figure 13.
* ``clustered`` -- 2 x 4-way clusters of 4 FIFOs; Figures 15 and 17,
  Section 5.5.
* ``clustered_windows`` -- two 32-entry windows, dispatch-driven
  steering; Figure 17 and the steering ablation.
* ``exec_steer`` -- central window, execution-driven steering;
  Figure 17.
* ``random`` -- two windows, random steering; Figure 17 and the
  steering ablation.
* ``modulo``, ``least_loaded`` -- two windows, dependence-blind
  steering; the steering ablation.
* ``load_tracking``, ``ports_limited`` -- baseline geometry with
  load-delay tracking or a read-port budget; the design-space
  frontier, which sweeps every key.

The clustered shapes take the inter-cluster bypass latency from
:class:`~repro.uarch.config.MachineConfig`'s default (2 cycles);
``**overrides`` changes it.
"""

from __future__ import annotations

from typing import Any

from repro.uarch.config import ClusterConfig, MachineConfig, SteeringPolicy


def baseline_8way(window_size: int = 64, **overrides: Any) -> MachineConfig:
    """The conventional 8-way, 64-entry-window superscalar (Table 3).

    This is also Figure 17's "1-cluster, 1 window" ideal machine:
    single-cycle bypass between all functional units.
    """
    return MachineConfig(
        name=f"baseline-8way-{window_size}w",
        clusters=(ClusterConfig(window_size=window_size, fu_count=8),),
        steering=SteeringPolicy.NONE,
        **overrides,
    )


def dependence_based_8way(
    fifo_count: int = 8, fifo_depth: int = 8, **overrides: Any
) -> MachineConfig:
    """Figure 13's dependence-based machine: one cluster of FIFOs.

    8 FIFOs of 8 entries, dispatch-driven steering (Section 5.1), all
    bypasses single cycle -- isolating the effect of FIFO issue from
    the effect of clustering.
    """
    return MachineConfig(
        name=f"dependence-8way-{fifo_count}x{fifo_depth}",
        clusters=(
            ClusterConfig(fifo_count=fifo_count, fifo_depth=fifo_depth, fu_count=8),
        ),
        steering=SteeringPolicy.FIFO_DISPATCH,
        **overrides,
    )


def clustered_dependence_8way(
    fifos_per_cluster: int = 4, fifo_depth: int = 8, **overrides: Any
) -> MachineConfig:
    """The 2 x 4-way clustered dependence-based machine (Section 5.4).

    Two clusters of four FIFOs and four functional units each; local
    bypasses take one cycle, inter-cluster bypasses two.
    """
    cluster = ClusterConfig(
        fifo_count=fifos_per_cluster, fifo_depth=fifo_depth, fu_count=4
    )
    return MachineConfig(
        name="2x4way-fifos-dispatch",
        clusters=(cluster, cluster),
        steering=SteeringPolicy.FIFO_DISPATCH,
        **overrides,
    )


def clustered_windows_8way(
    window_size: int = 32, **overrides: Any
) -> MachineConfig:
    """Two 32-entry windows with dispatch-driven steering (5.6.2).

    The steering heuristic treats each window as eight conceptual
    FIFOs of four slots, but instructions issue from any slot.
    """
    cluster = ClusterConfig(window_size=window_size, fu_count=4)
    return MachineConfig(
        name="2x4way-windows-dispatch",
        clusters=(cluster, cluster),
        steering=SteeringPolicy.WINDOW_DISPATCH,
        **overrides,
    )


def clustered_exec_steer_8way(**overrides: Any) -> MachineConfig:
    """Central 64-entry window, execution-driven steering (5.6.1).

    Instructions wait in one shared window and are assigned to the
    cluster that provides their operands first, at issue time.
    """
    cluster = ClusterConfig(window_size=32, fu_count=4)
    return MachineConfig(
        name="2x4way-1window-exec",
        clusters=(cluster, cluster),
        steering=SteeringPolicy.EXEC_DRIVEN,
        **overrides,
    )


def clustered_random_8way(
    window_size: int = 32, **overrides: Any
) -> MachineConfig:
    """Two 32-entry windows with random steering (5.6.3 baseline)."""
    cluster = ClusterConfig(window_size=window_size, fu_count=4)
    return MachineConfig(
        name="2x4way-windows-random",
        clusters=(cluster, cluster),
        steering=SteeringPolicy.RANDOM,
        **overrides,
    )


def clustered_modulo_8way(
    window_size: int = 32, **overrides: Any
) -> MachineConfig:
    """Ablation: round-robin (modulo) steering over two windows.

    Dependence-blind like random steering but perfectly load balanced,
    separating the two reasons random steering loses.
    """
    cluster = ClusterConfig(window_size=window_size, fu_count=4)
    return MachineConfig(
        name="2x4way-windows-modulo",
        clusters=(cluster, cluster),
        steering=SteeringPolicy.MODULO,
        **overrides,
    )


def clustered_least_loaded_8way(
    window_size: int = 32, **overrides: Any
) -> MachineConfig:
    """Ablation: emptiest-window steering over two windows."""
    cluster = ClusterConfig(window_size=window_size, fu_count=4)
    return MachineConfig(
        name="2x4way-windows-least-loaded",
        clusters=(cluster, cluster),
        steering=SteeringPolicy.LEAST_LOADED,
        **overrides,
    )


def load_tracking_8way(window_size: int = 64, **overrides: Any) -> MachineConfig:
    """Baseline geometry with load-delay tracking.

    Diavastos & Carlson (arXiv:2109.03112): broadcast wakeup is
    replaced by predicted ready times with real-time load-delay
    feedback.  Consumers of a load predicted still in flight are held
    out of select (``StallCause.SCHED_WAIT``); in exchange the window
    logic drops its CAM, which the ``ldt_window_logic_ps`` delay model
    converts into a faster clock.
    """
    return MachineConfig(
        name=f"ldt-8way-{window_size}w",
        clusters=(ClusterConfig(window_size=window_size, fu_count=8),),
        steering=SteeringPolicy.NONE,
        load_delay_tracking=True,
        **overrides,
    )


def ports_limited_8way(
    read_ports: int = 4, window_size: int = 64, **overrides: Any
) -> MachineConfig:
    """Baseline geometry with a read-port-limited register file.

    Los (arXiv:2502.00147): the fully-ported file (16 read ports for
    8-way issue) is cut to ``read_ports`` per cluster; issue slots
    that would oversubscribe the ports stall that cycle
    (``StallCause.REGFILE_PORT``), and the regfile delay model sees
    the smaller port count.
    """
    return MachineConfig(
        name=f"ports-8way-{read_ports}r-{window_size}w",
        clusters=(ClusterConfig(window_size=window_size, fu_count=8),),
        steering=SteeringPolicy.NONE,
        regfile_read_ports=read_ports,
        **overrides,
    )


#: Every machine shape in the repo, keyed by a short stable name.
#: This is the single source the test suites (``tests/machines.py``)
#: and the fuzzer's config sampler (:mod:`repro.verify.sampler`) draw
#: from, so "all machine shapes" means the same thing everywhere.
MACHINE_REGISTRY = {
    "baseline": baseline_8way,
    "dependence": dependence_based_8way,
    "clustered": clustered_dependence_8way,
    "clustered_windows": clustered_windows_8way,
    "exec_steer": clustered_exec_steer_8way,
    "random": clustered_random_8way,
    "modulo": clustered_modulo_8way,
    "least_loaded": clustered_least_loaded_8way,
    "load_tracking": load_tracking_8way,
    "ports_limited": ports_limited_8way,
}


def machine_registry() -> dict[str, MachineConfig]:
    """Fresh default-parameter configs for every registered shape."""
    return {name: factory() for name, factory in MACHINE_REGISTRY.items()}
