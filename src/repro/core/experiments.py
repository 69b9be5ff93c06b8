"""The paper's experiments: figure grids, results, and EXPERIMENTS.md.

:data:`FIGURE_MACHINES` names each simulated figure's machines by
registry key.  Running one is ``run_campaign(figure_configs(which),
name=which)`` (:mod:`repro.core.campaign`), which returns an
:class:`ExperimentResult` whose rows mirror the figure's bars, keyed
by the same registry keys.  Only the section builders turn a key into
the row label the document prints (:data:`ROW_LABELS`).

Every EXPERIMENTS.md section from Table 1 through the design-space
frontier has one builder in :data:`SECTIONS`.  A builder returns a
:class:`Section`: the exact table rows and sentences the document
prints, and the numbers behind them.  Tier 1 requires each line
verbatim in its section, and ``scripts/record_experiments.py`` writes
the same lines, so each format exists once.  The simulated builders
run through :func:`~repro.core.campaign.run_campaign` and forward
their keyword arguments (``max_instructions``, ``cache``, ``jobs``)
to it, so one :class:`~repro.core.campaign.ResultCache` serves them
all.  Builders import their models when called, never at import time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.machines import MACHINE_REGISTRY
from repro.core.aggregate import arithmetic_mean, geometric_mean
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats

if TYPE_CHECKING:
    from repro.technology.params import Technology
    from repro.isa.emulator import Trace

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


#: Each simulated figure's machines, as registry keys in row order.
#: The paper's results, which the simulated grids are checked against:
#:
#: * ``fig13`` -- baseline window vs. single-cluster dependence-based.
#:   The dependence-based machine extracts similar parallelism: within
#:   5% for five of seven benchmarks, worst case 8% (li).
#: * ``fig15`` -- baseline vs. the 2x4-way clustered dependence-based
#:   machine with 2-cycle inter-cluster bypasses.  Nearly as
#:   effective; worst cases m88ksim (-12%) and compress (-9%), due to
#:   inter-cluster bypass latency.  Section 5.5 combines this grid
#:   with the clock ratio
#:   (:func:`repro.core.speedup.clock_adjusted_speedup`).
#: * ``fig17`` -- the five clustered organisations (IPC and
#:   inter-cluster bypass frequency).  Random steering degrades
#:   17-26%; execution-driven steering is nearly ideal (max 6% loss)
#:   but needs a central window; both dispatch-steered machines are
#:   competitive; bypass frequency anti-correlates with IPC.
FIGURE_MACHINES = {
    "fig13": ("baseline", "dependence"),
    "fig15": ("baseline", "clustered"),
    "fig17": ("baseline", "clustered", "clustered_windows", "exec_steer",
              "random"),
}

#: The Section 5.5 pair: Figure 15's (dependence-based, window-based)
#: machines, in :func:`~repro.core.speedup.clock_adjusted_speedup`'s
#: argument order.
SECTION55_MACHINES = ("clustered", "baseline")


def figure_configs(which: str) -> dict[str, MachineConfig]:
    """The (registry key -> config) grid of a :data:`FIGURE_MACHINES`
    figure (``"fig13"``, ``"fig15"`` or ``"fig17"``).

    Raises:
        KeyError: for an unknown figure name.
    """
    if which not in FIGURE_MACHINES:
        known = ", ".join(sorted(FIGURE_MACHINES))
        raise KeyError(f"unknown figure {which!r} (known: {known})")
    return _grid(FIGURE_MACHINES[which])


def _grid(keys: tuple[str, ...]) -> dict[str, MachineConfig]:
    return {key: MACHINE_REGISTRY[key]() for key in keys}


# ----------------------------------------------------------------------
# EXPERIMENTS.md sections
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Section:
    """One EXPERIMENTS.md section, as the document prints it.

    Attributes:
        title: The section heading's first words (``## <title> ...``).
        lines: Table rows and sentences, each printed verbatim in the
            section (sentences up to line wrapping).
        data: The numbers behind the lines, for shape checks.
    """

    title: str
    lines: list[str]
    data: dict[str, Any] = field(default_factory=dict)


#: The row label EXPERIMENTS.md prints for a machine, by (section
#: title, registry key).  Only the section builders read it.
ROW_LABELS = {
    ("Figure 13", "baseline"): "baseline (64-entry window)",
    ("Figure 13", "dependence"): "dependence-based",
    ("Figure 15", "baseline"): "window-based 8-way",
    ("Figure 15", "clustered"): "2-cluster dependence-based",
    ("Figure 17", "clustered"): "2-cluster FIFOs, dispatch steer",
    ("Figure 17", "clustered_windows"): "2-cluster windows, dispatch steer",
    ("Figure 17", "exec_steer"): "2-cluster 1 window, exec steer",
    ("Figure 17", "random"): "2-cluster windows, random steer",
    ("Ablations", "clustered_windows"): "dependence-aware",
    ("Ablations", "random"): "random",
    ("Ablations", "modulo"): "modulo",
    ("Ablations", "least_loaded"): "least-loaded",
}


def _row(*cells: object) -> str:
    """One markdown table row."""
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


def _tech(tech: Technology) -> str:
    """The document's spelling of a technology node (``0.18 µm``)."""
    return f"{tech.feature_size_um:g} µm"


def _percent(fraction: float) -> str:
    return f"{100 * fraction:.1f} %"


def _run(configs: dict[str, MachineConfig], name: str,
         **campaign: Any) -> ExperimentResult:
    from repro.core.campaign import run_campaign

    return run_campaign(configs, name=name, **campaign)[0]


def table1(**_campaign: Any) -> Section:
    """Bypass wire length and delay, paper / ours.  The wire delay is
    technology-invariant, so every node must print the same rows."""
    from repro.delay import BypassDelayModel
    from repro.delay.calibration import TABLE1
    from repro.technology import TECHNOLOGIES

    rows = [
        _row(width,
             f"{length:.0f} / {model.wire_length_lambda(width):.0f}",
             f"{delay:.1f} / {model.total(width):.1f}")
        for model in map(BypassDelayModel, TECHNOLOGIES)
        for width, (length, delay) in sorted(TABLE1.items())
    ]
    return Section("Table 1", list(dict.fromkeys(rows)))


def table2(**_campaign: Any) -> Section:
    """Rename, window-logic and bypass delay, paper / ours."""
    from repro.delay import overall_delays
    from repro.delay.calibration import TABLE2_PS
    from repro.technology import TECH_018, TECHNOLOGIES

    lines = []
    for tech in TECHNOLOGIES:
        for (width, window), paper in TABLE2_PS[tech.name].items():
            ours = overall_delays(tech, width, window)
            measured = (ours.rename_ps, ours.window_logic_ps, ours.bypass_ps)
            lines.append(_row(
                _tech(tech), f"{width}-way/{window}",
                *(f"{p:.1f} / {m:.1f}" for p, m in zip(paper, measured))))
    eight = overall_delays(TECH_018, 8, 64)
    lines.append(f"the bypass delay ({eight.bypass_ps:.1f} ps) overtakes "
                 f"the window logic ({eight.window_logic_ps:.1f} ps)")
    return Section("Table 2", lines)


def table4(**_campaign: Any) -> Section:
    """Reservation-table delay at 0.18 µm, paper / ours."""
    from repro.delay import ReservationTableDelayModel
    from repro.delay.calibration import TABLE4_018
    from repro.technology import TECH_018

    model = ReservationTableDelayModel(TECH_018)
    lines, delay = [], {}
    for width, paper in sorted(TABLE4_018.items()):
        registers = paper["physical_registers"]
        delay[width] = model.total(width, registers)
        lines.append(_row(
            width, registers, f"{model.entries(registers)} × {paper['bits']}",
            f"{paper['delay_ps']:.1f} / {delay[width]:.1f}"))
    return Section("Table 4", lines, {"delay": delay})


def figure3(**_campaign: Any) -> Section:
    """Rename delay at 2/4/8-way for each technology."""
    from repro.delay import RenameDelayModel
    from repro.technology import TECHNOLOGIES

    widths = (2, 4, 8)
    parts, components = [], {}
    for tech in TECHNOLOGIES:
        model = RenameDelayModel(tech)
        parts.append(f"{_tech(tech)}: "
                     + " / ".join(f"{model.total(w):.1f}" for w in widths))
        components[tech.name] = {w: model.components(w) for w in widths}
    return Section(
        "Figure 3", [f"{parts[0]} at 2/4/8-way; {parts[1]}; {parts[2]}."],
        {"components": components})


def figure5(**_campaign: Any) -> Section:
    """Wakeup delay at 64 entries and its issue-width growth steps."""
    from repro.delay import WakeupDelayModel
    from repro.technology import TECH_018

    model = WakeupDelayModel(TECH_018)
    two, four, eight = (model.total(width, 64) for width in (2, 4, 8))
    return Section("Figure 5", [
        f"Measured at 64 entries: {two:.1f} / {four:.1f} / {eight:.1f} ps "
        f"for 2/4/8-way; growth steps +{_percent(four / two - 1)} "
        f"(2→4-way) and +{_percent(eight / four - 1)} (4→8-way)"])


def figure6(**_campaign: Any) -> Section:
    """The wire-dominated share of 8-way/64 wakeup, coarse to fine."""
    from repro.delay import WakeupDelayModel
    from repro.technology import TECH_018, TECH_080

    coarse, fine = WakeupDelayModel(TECH_080), WakeupDelayModel(TECH_018)
    return Section("Figure 6", [
        f"{_percent(coarse.wire_fraction(8, 64))} at 0.8 µm → "
        f"{_percent(fine.wire_fraction(8, 64))} at 0.18 µm",
        f"totals shrink {coarse.total(8, 64):.1f} → {fine.total(8, 64):.1f} ps",
    ])


def figure8(**_campaign: Any) -> Section:
    """Selection delay's tree-depth steps."""
    from repro.delay import SelectionDelayModel
    from repro.technology import TECH_018, TECHNOLOGIES

    windows = (16, 32, 64, 128)
    total = {tech.name: {w: SelectionDelayModel(tech).total(w) for w in windows}
             for tech in TECHNOLOGIES}
    delays = " / ".join(f"{total[TECH_018.name][w]:.0f}" for w in windows)
    return Section(
        "Figure 8", [f"at 0.18 µm, {delays} ps for 16/32/64/128 entries"],
        {"total": total})


def _figure_ipc_rows(result: ExperimentResult, section: str) -> list[str]:
    """Each machine's IPC row and the second machine's relative row."""
    reference, machine = result.machine_names[:2]
    rows = [_row(ROW_LABELS[section, name], *(f"{ipc:.3f}" for ipc in ipcs.values()))
            for name, ipcs in result.ipc_table().items()]
    relative = result.relative_ipc(machine, reference).values()
    return rows + [_row("relative", *(f"{ratio:.3f}" for ratio in relative))]


def figure13(**campaign: Any) -> Section:
    """IPC of the baseline window vs the dependence-based machine."""
    result = _run(figure_configs("fig13"), "fig13", **campaign)
    relative = result.relative_ipc("dependence", "baseline")
    close = [w for w, ratio in relative.items() if ratio > 0.95]
    worst = min(relative, key=relative.__getitem__)
    mean = arithmetic_mean(relative.values())
    return Section("Figure 13", _figure_ipc_rows(result, "Figure 13") + [
        f"({', '.join(close)}), worst −{100 * (1 - relative[worst]):.0f} % "
        f"({worst}",
        f"Mean degradation {_percent(1 - mean)}.",
    ], {"result": result})


def figure15(**campaign: Any) -> Section:
    """IPC of the window-based vs the 2-cluster dependence-based machine."""
    result = _run(figure_configs("fig15"), "fig15", **campaign)
    relative = result.relative_ipc(*SECTION55_MACHINES)
    mean = arithmetic_mean(relative.values())
    return Section("Figure 15", _figure_ipc_rows(result, "Figure 15") + [
        f"(mean −{_percent(1 - mean)}; m88ksim "
        f"−{_percent(1 - relative['m88ksim'])}",
    ], {"result": result})


#: The paper's result for each clustered Figure 17 machine.
_FIGURE17_PAPER = {
    "clustered": "competitive",
    "clustered_windows": "competitive",
    "exec_steer": "≥ 0.94 (max −6 %)",
    "random": "0.74–0.83 (−17…−26 %)",
}


def _span(fractions: list[float]) -> str:
    """A range of fractions as whole percents (``3–17 %``)."""
    return f"{100 * min(fractions):.0f}–{100 * max(fractions):.0f} %"


def figure17(**campaign: Any) -> Section:
    """Mean relative IPC and inter-cluster bypass frequency of the
    clustered organisations."""
    result = _run(figure_configs("fig17"), "fig17", **campaign)
    ideal, *clustered = result.machine_names
    lines = [
        _row(ROW_LABELS["Figure 17", machine], _FIGURE17_PAPER[machine],
             f"{result.mean_relative_ipc(machine, ideal):.3f}")
        for machine in clustered
    ]
    bypass = {machine: list(result.bypass_frequency(machine).values())
              for machine in clustered}
    random = result.bypass_frequency("random")
    peak = max(random, key=random.__getitem__)
    dispatch = bypass["clustered"] + bypass["clustered_windows"]
    lines += [
        f"random steering {_span(bypass['random'])}",
        f"ours peaks at {_percent(random[peak])} on {peak}",
        f"dispatch-steered machines {_span(dispatch)}; exec-steered "
        f"{_span(bypass['exec_steer'])}",
    ]
    return Section("Figure 17", lines, {"result": result})


def section55(**campaign: Any) -> Section:
    """The clock-adjusted speedup of the clustered dependence-based
    machine, and Section 5.3's bound on a 4-way clock."""
    from repro.core.speedup import clock_adjusted_speedup
    from repro.delay import max_clock_improvement_4way, window_logic_delay
    from repro.technology import TECH_018

    result = _run(figure_configs("fig15"), "fig15", **campaign)
    summary = clock_adjusted_speedup(result, *SECTION55_MACHINES, TECH_018)
    window = window_logic_delay(TECH_018, 8, 64)
    cluster = window_logic_delay(TECH_018, 4, 32)
    gap = 1 - result.mean_relative_ipc(*SECTION55_MACHINES)
    return Section("Section 5.5", [
        f"f_dep/f_win = {window:.1f}/{cluster:.1f} = "
        f"**{summary.clock_ratio:.3f}** at 0.18 µm",
        *(_row(workload, f"{100 * (speedup - 1):+.1f} %")
          for workload, speedup in summary.per_workload.items()),
        _row("**mean**", f"**{100 * (summary.mean - 1):+.1f} %**"),
        f"(−{_percent(gap)} vs −6.3 %)",
        f"could improve by up to {_percent(max_clock_improvement_4way(TECH_018))}",
    ], {"summary": summary})


#: Wakeup/select pipeline depths Figure 10's sweep compares.
FIGURE10_STAGES = (1, 2, 3)


def serial_chain_trace(length: int = 400) -> Trace:
    """A fully serial dependence chain: every add reads the last."""
    from repro.isa import assemble, run_to_trace

    body = "\n".join("addu r1, r1, r2" for _ in range(length))
    return run_to_trace(assemble(f"li r1, 0\nli r2, 1\n{body}\nhalt\n"))


def figure10(**campaign: Any) -> Section:
    """The IPC cost of splitting wakeup+select over N stages, on the
    suite and on a serial chain that exposes every bubble."""
    from repro.uarch.pipeline import simulate

    configs = {
        f"{stages}-stage": MACHINE_REGISTRY["baseline"](
            wakeup_select_stages=stages)
        for stages in FIGURE10_STAGES
    }
    result = _run(configs, "fig10", **campaign)
    chain = serial_chain_trace()
    ipc = {stages: result.ipc_table()[name]
           for stages, name in zip(FIGURE10_STAGES, configs)}
    serial = {stages: simulate(config, chain).ipc
              for stages, config in zip(FIGURE10_STAGES, configs.values())}
    loss = {stages: 1 - result.mean_relative_ipc(name, "1-stage")
            for stages, name in zip(FIGURE10_STAGES, configs)}
    return Section("Figure 10", [
        f"({' / '.join(f'{serial[s]:.2f}' for s in FIGURE10_STAGES)} for "
        f"1/2/3 stages); across the benchmark suite the mean IPC loss is "
        f"{_percent(loss[2])} at 2 stages and {_percent(loss[3])} at 3",
    ], {"ipc": ipc, "serial": serial, "loss": loss})


#: Figure 12's code segment, the paper's register numbers kept
#: verbatim (one label per branch target).
FIGURE12_SOURCE = """
main:
    addu  $18, $0, $2          # 0
    addiu $2, $0, -1           # 1
    beq   $18, $2, L2          # 2   (not taken here)
    lw    $4, -32768($28)      # 3
    sllv  $2, $18, $20         # 4
    xor   $16, $2, $19         # 5
    lw    $3, -32676($28)      # 6
    sll   $2, $16, 0x2         # 7
    addu  $2, $2, $23          # 8
    lw    $2, 0($2)            # 9
    sllv  $4, $18, $4          # 10
    addu  $17, $4, $19         # 11
    addiu $3, $3, 1            # 12
    sw    $3, -32676($28)      # 13
    beq   $2, $17, L3          # 14  (taken here)
L2: halt
L3: halt
"""


def figure12_machine() -> MachineConfig:
    """Figure 12's machine: four FIFOs, steering and issuing four
    instructions per cycle, as the figure's caption states."""
    from repro.uarch.config import (
        CacheConfig,
        ClusterConfig,
        PredictorConfig,
        SteeringPolicy,
    )

    return MachineConfig(
        name="fig12",
        fetch_width=4,
        dispatch_width=4,
        issue_width=4,
        clusters=(ClusterConfig(fifo_count=4, fifo_depth=8, fu_count=4),),
        steering=SteeringPolicy.FIFO_DISPATCH,
        # Weakly not-taken start so the figure's fall-through branch
        # is predicted correctly (the figure assumes no fetch stall),
        # and single-cycle memory (the figure's loads have no misses).
        predictor=PredictorConfig(initial_counter=1),
        cache=CacheConfig(miss_cycles=1),
    )


def figure12(**_campaign: Any) -> Section:
    """The worked steering example's first four issue groups."""
    from repro.isa import assemble, run_to_trace
    from repro.uarch.pipeline import PipelineSimulator

    simulator = PipelineSimulator(
        figure12_machine(), run_to_trace(assemble(FIGURE12_SOURCE)))
    simulator.run()
    first = min(simulator.issue_cycle)
    groups: dict[int, list[int]] = {}
    for seq, cycle in enumerate(simulator.issue_cycle):
        groups.setdefault(cycle - first + 1, []).append(seq)
    return Section("Figure 12", [", ".join(
        f"cycle {cycle} → {{{', '.join(map(str, groups[cycle]))}}}"
        for cycle in range(1, 5))])


def supporting_structures(**_campaign: Any) -> Section:
    """Register-file, CAM-vs-RAM rename and cache-access delays."""
    from repro.delay import (
        CacheAccessDelayModel,
        CamRenameDelayModel,
        RegisterFileDelayModel,
        RenameDelayModel,
    )
    from repro.technology import TECH_018
    from repro.uarch.config import CacheConfig

    regfile = RegisterFileDelayModel(TECH_018)
    shared = regfile.machine_total(120, 8)
    per_cluster = regfile.clustered_total(120, 8, 2)
    cam, ram = CamRenameDelayModel(TECH_018), RenameDelayModel(TECH_018)
    rename = {(width, registers): (cam.total(width, registers), ram.total(width))
              for width, registers in ((2, 64), (4, 80), (8, 256))}
    cache_model = CacheAccessDelayModel(TECH_018)
    cache = {kb: cache_model.total(CacheConfig(size_bytes=kb * 1024))
             for kb in (8, 16, 32, 64, 128)}
    return Section("Supporting structures", [
        f"8-way shared 16r/8w → {shared:.0f} ps; a per-cluster copy "
        f"(8r/8w) → {per_cluster:.0f} ps",
        "(2-way/64: {:.0f} vs {:.0f} ps; 4-way/80: {:.0f} vs {:.0f} ps, "
        "equal by construction), divergent beyond (8-way/256: {:.0f} vs "
        "{:.0f} ps)".format(*rename[2, 64], *rename[4, 80], *rename[8, 256]),
        f"(8 KB → {cache[8]:.0f} ps, 128 KB → {cache[128]:.0f} ps at 0.18 µm)",
    ], {"regfile": (shared, per_cluster), "rename": rename, "cache": cache})


def complexity_frontier(**campaign: Any) -> Section:
    """Conventional window sizes and the dependence-based machine on
    the IPC x clock axes at 0.18 µm."""
    from repro.core.frontier import conventional_frontier, dependence_based_point

    conventional = conventional_frontier(**campaign)
    dependence = dependence_based_point(**campaign)
    lines = [_row(p.label, f"{p.mean_ipc:.2f}", f"{p.clock_ps:.0f}",
                  f"{p.bips:.2f}") for p in conventional]
    lines.append(_row("**dependence-8×8**", f"**{dependence.mean_ipc:.2f}**",
                      f"**{dependence.clock_ps:.0f}**",
                      f"**{dependence.bips:.2f}**"))
    return Section("Complexity-effectiveness frontier", lines,
                   {"conventional": conventional, "dependence": dependence})


#: The ablation sweeps' representative workloads.
ABLATION_WORKLOADS = ("compress", "li", "m88ksim")

#: The steering-blindness machines: the reference, the
#: dependence-aware machine, then the dependence-blind ones.
STEERING_MACHINES = ("baseline", "clustered_windows", "modulo",
                     "least_loaded", "random")


def _mean_ipcs(result: ExperimentResult) -> dict[str, float]:
    return {machine: geometric_mean(ipcs.values())
            for machine, ipcs in result.ipc_table().items()}


def ablations(**campaign: Any) -> Section:
    """The five design-choice ablations the paper does not sweep:
    FIFO geometry, inter-cluster bypass latency, selection policy,
    the pipelining cost of the faster clock, and steering blindness."""
    from repro.delay.pipelining import conventional_plan, dependence_based_plan
    from repro.technology import TECH_018, TECHNOLOGIES
    from repro.uarch.config import SelectionPolicy

    geometries = ((4, 8), (8, 4), (8, 8), (8, 16), (16, 8))
    fifo = _mean_ipcs(_run({
        f"{count}×{depth}": MACHINE_REGISTRY["dependence"](
            fifo_count=count, fifo_depth=depth)
        for count, depth in geometries
    }, "ablation-fifo-geometry", workloads=ABLATION_WORKLOADS, **campaign))
    latency = _mean_ipcs(_run({
        str(cycles): MACHINE_REGISTRY["clustered"](
            inter_cluster_bypass_cycles=cycles)
        for cycles in (1, 2, 3, 4)
    }, "ablation-bypass-latency", workloads=ABLATION_WORKLOADS, **campaign))
    selection = _run({
        policy.value: MACHINE_REGISTRY["baseline"](selection=policy)
        for policy in (SelectionPolicy.OLDEST_FIRST, SelectionPolicy.POSITION)
    }, "ablation-selection", **campaign)
    effect = {w: abs(1 - ratio) for w, ratio in
              selection.relative_ipc("position", "oldest").items()}
    plans = {tech.name: (conventional_plan(tech), dependence_based_plan(tech))
             for tech in TECHNOLOGIES}
    conventional, dependence = plans[TECH_018.name]
    steering = _run(_grid(STEERING_MACHINES), "ablation-steering",
                    workloads=("compress", "gcc", "m88ksim", "vortex"),
                    **campaign)
    ideal, aware, *blind = STEERING_MACHINES
    relative = {name: steering.mean_relative_ipc(name, ideal)
                for name in steering.machine_names[1:]}
    traffic = {name: arithmetic_mean(steering.bypass_frequency(name).values())
               for name in steering.machine_names[1:]}

    fifo_text = ", ".join(
        f"**{name} → {ipc:.3f}** (the paper's choice; the knee)"
        if name == "8×8" else f"{name} → {ipc:.3f}"
        for name, ipc in fifo.items())
    latency_text = ", ".join(
        f"{cycles}{' cycle' if cycles == '1' else ''} → {ipc:.3f}"
        for cycles, ipc in latency.items())
    blind_text = ", ".join(f"{ROW_LABELS['Ablations', name]} {relative[name]:.2f}"
                           for name in blind)
    return Section("Ablations", [
        fifo_text,
        latency_text,
        f"within {_percent(max(effect.values()))} of true oldest-first on "
        f"every benchmark",
        f"at the dependence-based machine's 0.18 µm clock "
        f"({dependence.clock_ps:.0f} ps), rename still takes "
        f"{dependence.rename_stages} stage but the 8-way register file needs "
        f"{dependence.regfile_stages} "
        f"stages and the 32 KB data cache {dependence.cache_stages} (vs "
        f"{conventional.regfile_stages} and {conventional.cache_stages} at "
        f"the conventional {conventional.clock_ps:.0f} ps clock)",
        f"(mean relative IPC: {blind_text}; "
        f"{_span([traffic[name] for name in blind])} inter-cluster "
        f"traffic), while {ROW_LABELS['Ablations', aware]} dispatch steering "
        f"reaches {relative[aware]:.2f} with {100 * traffic[aware]:.0f} % "
        f"traffic",
    ], {
        "fifo_geometry": fifo, "bypass_latency": latency,
        "selection": selection, "plans": plans,
        "steering": relative, "steering_traffic": traffic,
    })


#: The design-space frontier's headline shapes (registry keys).
HEADLINE_MACHINES = ("baseline", "dependence", "clustered")


def bips_frontier(**campaign: Any) -> Section:
    """The headline registry shapes, each charged for its own clock
    at 0.18 µm."""
    from repro.core import frontier
    from repro.technology import TECH_018
    from repro.workloads import WORKLOAD_NAMES

    points, _profile = frontier.design_space_frontier(
        techs=(TECH_018,),
        machines=_grid(HEADLINE_MACHINES),
        **campaign)
    by_name = dict(zip(HEADLINE_MACHINES, points))
    baseline, clustered = by_name["baseline"], by_name["clustered"]
    return Section("The design-space BIPS frontier", [
        *(_row(f"`{name}`", f"{p.mean_ipc:.3f}", f"{p.clock_ps:.1f}",
               f"{p.bips:.2f}", p.bounded_by) for name, p in by_name.items()),
        f"at 0.18 µm ({len(WORKLOAD_NAMES)} workloads,",
        f"gives up ~{100 * (1 - clustered.mean_ipc / baseline.mean_ipc):.0f} % "
        f"IPC but wins ~{100 * (clustered.bips / baseline.bips - 1):.0f} % BIPS",
    ], {"points": by_name})


#: One builder per EXPERIMENTS.md section, in document order.  Every
#: builder takes the campaign options (``max_instructions``, ``cache``,
#: ``jobs``) as keywords; the delay builders simulate nothing and
#: ignore them.
SECTIONS: tuple[Callable[..., Section], ...] = (
    table1, table2, table4, figure3, figure5, figure6, figure8,
    figure13, figure15, figure17, section55, figure10, figure12,
    supporting_structures, complexity_frontier, ablations,
    bips_frontier,
)
