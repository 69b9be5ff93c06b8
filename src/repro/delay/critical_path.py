"""Config-derived clock models: the single critical-path layer.

Every :class:`~repro.uarch.config.MachineConfig` can answer "what
clock does this design support at technology T?" through this module
and nowhere else.  A registry maps each studied pipeline structure
(rename, window logic, bypass, register file, cache access) to a
builder that constructs the structure's delay model *from* the config
-- issue width, window/FIFO shape, cluster count, physical registers,
ports are all derived, never re-typed at call sites -- and the
resulting :class:`CriticalPath` reports both the cycle-time bound and
the structure responsible for it.

Two accountings, encoded once (the paper's Sections 4.5 and 5.5):

* **clock bound** (:attr:`CriticalPath.clock_ps`): the slower of
  rename and any cluster's window logic.  Bypass is *excluded* from
  this bound because the paper's remedy for bypass delay --
  clustering -- applies to both kinds of machine and is evaluated
  separately (Figures 15/17); this is the accounting Section 5.5 and
  the complexity-effectiveness frontier use.
* **critical path** (:attr:`CriticalPath.critical_path_ps`): the
  longest delay among rename, window logic, and bypass -- Table 2's
  "critical" column, the cycle time if nothing is remedied.

The atomic-loop rule (Section 4.5) is carried on each entry: wakeup +
select and bypass form single-cycle loops that cannot be pipelined
without losing back-to-back execution of dependent instructions, so
their delays can never be hidden by adding stages.

Scalar helpers (:func:`rename_ps`, :func:`window_logic_ps`,
:func:`fifo_window_logic_ps`, ...) are the one home of the clock-bound
arithmetic; :mod:`repro.delay.summary`, :mod:`repro.core.frontier`,
and :mod:`repro.core.speedup` are thin consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.delay.bypass import BypassDelayModel
from repro.delay.cache_access import CacheAccessDelayModel
from repro.delay.regfile import RegisterFileDelayModel
from repro.delay.rename import RenameDelayModel
from repro.delay.reservation import ReservationTableDelayModel
from repro.delay.select import SelectionDelayModel
from repro.delay.wakeup import WakeupDelayModel
from repro.technology.params import Technology
from repro.uarch.config import MachineConfig


# ----------------------------------------------------------------------
# scalar clock-bound arithmetic (the single source)
# ----------------------------------------------------------------------


def rename_ps(
    tech: Technology,
    issue_width: int,
    logical_registers: int = 32,
    physical_registers: int = 120,
) -> float:
    """Rename (map-table) delay for one design point, in picoseconds."""
    model = RenameDelayModel(
        tech,
        logical_registers=logical_registers,
        physical_registers=physical_registers,
    )
    return model.total(issue_width)


def wakeup_ps(
    tech: Technology,
    issue_width: int,
    window_size: int,
    physical_registers: int = 120,
) -> float:
    """CAM wakeup delay for a flexible window, in picoseconds."""
    model = WakeupDelayModel(tech, physical_registers=physical_registers)
    return model.total(issue_width, window_size)


def select_ps(tech: Technology, requesters: int) -> float:
    """Arbiter-tree selection delay over ``requesters`` entries."""
    return SelectionDelayModel(tech).total(requesters)


def bypass_ps(tech: Technology, fu_span: int) -> float:
    """Bypass result-wire delay across a stack of ``fu_span`` units."""
    return BypassDelayModel(tech).total(fu_span)


def window_logic_ps(
    tech: Technology,
    issue_width: int,
    window_size: int,
    physical_registers: int = 120,
) -> float:
    """Wakeup + select: the atomic window-logic loop of a flexible
    window (the conventional machine's cycle-time bound)."""
    wakeup = wakeup_ps(tech, issue_width, window_size, physical_registers)
    return wakeup + select_ps(tech, window_size)


def fifo_window_logic_ps(
    tech: Technology,
    issue_width: int,
    tag_count: int,
    fifo_count: int,
) -> float:
    """The dependence-based design's window-logic loop.

    Wakeup is a reservation-table access (Table 4) indexed by result
    tag -- one ready bit per in-flight destination, so ``tag_count``
    is the machine's in-flight limit -- and selection only arbitrates
    among the FIFO heads, so its tree covers ``fifo_count`` requesters
    rather than the whole window.
    """
    wakeup = ReservationTableDelayModel(tech).total(issue_width, tag_count)
    return wakeup + select_ps(tech, fifo_count)


def ldt_window_logic_ps(
    tech: Technology,
    issue_width: int,
    tag_count: int,
    window_size: int,
) -> float:
    """The load-delay-tracking design's window-logic loop.

    Diavastos & Carlson (arXiv:2109.03112) replace the broadcast CAM
    with per-instruction ready-time countdowns: wakeup becomes an
    indexed reservation-table update (the same RAM structure as the
    dependence-based design, one entry per in-flight tag), while
    selection still arbitrates over the whole flexible window.  The
    clock gain over :func:`window_logic_ps` is exactly the CAM-vs-RAM
    wakeup difference; the IPC cost of mispredicted ready times is
    what the simulator measures with ``load_delay_tracking`` on.
    """
    wakeup = ReservationTableDelayModel(tech).total(issue_width, tag_count)
    return wakeup + select_ps(tech, window_size)


# ----------------------------------------------------------------------
# per-structure delay entries, built from a MachineConfig
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StructureDelay:
    """One pipeline structure's delay at a design point.

    Attributes:
        structure: Registry key of the builder that produced the entry
            (``"rename"``, ``"window"``, ``"bypass"``, ``"regfile"``,
            ``"cache"``).
        label: Human-readable description including the derived
            geometry, e.g. ``"cluster0 wakeup+select (4-way/32)"``.
        delay_ps: Delay in picoseconds.
        atomic: True for Section 4.5 single-cycle loops (window logic,
            bypass) that cannot be pipelined without an IPC penalty.
        clock_bounding: True when the structure participates in the
            Section 5.5 cycle-time bound (rename and window logic;
            bypass is excluded -- see the module docstring).
    """

    structure: str
    label: str
    delay_ps: float
    atomic: bool
    clock_bounding: bool


#: A registry entry: (config, technology) -> the structure's delay
#: entries (one per cluster for clustered structures).
StructureBuilder = Callable[
    [MachineConfig, Technology], "tuple[StructureDelay, ...]"
]

#: Pipeline structure name -> delay-model builder, in report order.
#: Extend the critical path by registering a new builder with
#: :func:`delay_model` (see docs/design_space.md).
DELAY_MODEL_REGISTRY: dict[str, StructureBuilder] = {}


def delay_model(name: str) -> Callable[[StructureBuilder], StructureBuilder]:
    """Register a structure's delay-model builder under ``name``."""

    def register(builder: StructureBuilder) -> StructureBuilder:
        DELAY_MODEL_REGISTRY[name] = builder
        return builder

    return register


@delay_model("rename")
def _rename_structure(
    config: MachineConfig, tech: Technology
) -> tuple[StructureDelay, ...]:
    delay = rename_ps(
        tech, config.issue_width, physical_registers=config.int_phys_regs
    )
    return (
        StructureDelay(
            structure="rename",
            label=f"rename ({config.issue_width}-way map table)",
            delay_ps=delay,
            atomic=False,
            clock_bounding=True,
        ),
    )


@delay_model("window")
def _window_structure(
    config: MachineConfig, tech: Technology
) -> tuple[StructureDelay, ...]:
    entries = []
    widths = config.cluster_issue_widths
    for index, (cluster, width) in enumerate(zip(config.clusters, widths)):
        if cluster.uses_fifos:
            delay = fifo_window_logic_ps(
                tech, width, config.reservation_tag_count, cluster.fifo_count
            )
            label = (
                f"cluster{index} reservation wakeup+select "
                f"({width}-way, {cluster.fifo_count} FIFO heads)"
            )
        elif config.load_delay_tracking:
            delay = ldt_window_logic_ps(
                tech, width, config.reservation_tag_count, cluster.window_size
            )
            label = (
                f"cluster{index} ready-time wakeup+select "
                f"({width}-way/{cluster.window_size})"
            )
        else:
            delay = window_logic_ps(
                tech, width, cluster.window_size, config.int_phys_regs
            )
            label = (
                f"cluster{index} wakeup+select "
                f"({width}-way/{cluster.window_size})"
            )
        entries.append(
            StructureDelay(
                structure="window",
                label=label,
                delay_ps=delay,
                atomic=True,
                clock_bounding=True,
            )
        )
    return tuple(entries)


@delay_model("bypass")
def _bypass_structure(
    config: MachineConfig, tech: Technology
) -> tuple[StructureDelay, ...]:
    entries = []
    for index, cluster in enumerate(config.clusters):
        entries.append(
            StructureDelay(
                structure="bypass",
                label=f"cluster{index} local bypass ({cluster.fu_count} FUs)",
                delay_ps=bypass_ps(tech, cluster.fu_count),
                atomic=True,
                clock_bounding=False,
            )
        )
    return tuple(entries)


@delay_model("regfile")
def _regfile_structure(
    config: MachineConfig, tech: Technology
) -> tuple[StructureDelay, ...]:
    model = RegisterFileDelayModel(tech)
    entries = []
    ports = config.cluster_read_ports
    for index, (cluster, read_ports) in enumerate(zip(config.clusters, ports)):
        write_ports = cluster.fu_count
        delay = model.total(config.int_phys_regs, read_ports, write_ports)
        entries.append(
            StructureDelay(
                structure="regfile",
                label=(
                    f"cluster{index} regfile ({config.int_phys_regs} regs, "
                    f"{read_ports}R/{write_ports}W)"
                ),
                delay_ps=delay,
                atomic=False,
                clock_bounding=False,
            )
        )
    return tuple(entries)


@delay_model("cache")
def _cache_structure(
    config: MachineConfig, tech: Technology
) -> tuple[StructureDelay, ...]:
    delay = CacheAccessDelayModel(tech).total(
        config.cache, ports=config.cache.ports
    )
    kilobytes = config.cache.size_bytes // 1024
    return (
        StructureDelay(
            structure="cache",
            label=f"cache access ({kilobytes} KB, {config.cache.ports} ports)",
            delay_ps=delay,
            atomic=False,
            clock_bounding=False,
        ),
    )


# ----------------------------------------------------------------------
# the critical path
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalPath:
    """Every studied structure's delay for one (config, technology).

    Built by :func:`critical_path`; see the module docstring for the
    two accountings (:attr:`clock_ps` vs :attr:`critical_path_ps`).
    """

    config: MachineConfig
    tech: Technology
    structures: tuple[StructureDelay, ...]

    def _bounding(self) -> tuple[StructureDelay, ...]:
        return tuple(s for s in self.structures if s.clock_bounding)

    @property
    def clock_ps(self) -> float:
        """The supported clock period: Section 5.5's cycle bound."""
        return max(s.delay_ps for s in self._bounding())

    @property
    def bounding_structure(self) -> StructureDelay:
        """The structure that sets :attr:`clock_ps`."""
        return max(self._bounding(), key=lambda s: s.delay_ps)

    @property
    def frequency_ghz(self) -> float:
        """Clock frequency implied by :attr:`clock_ps`."""
        return 1000.0 / self.clock_ps

    @property
    def critical_path_ps(self) -> float:
        """Table 2's critical column: the longest delay among rename,
        window logic, and bypass (atomic loops included)."""
        candidates = [
            s.delay_ps for s in self.structures if s.clock_bounding or s.atomic
        ]
        return max(candidates)

    @property
    def critical_structure(self) -> StructureDelay:
        """The structure that sets :attr:`critical_path_ps`."""
        return max(
            (s for s in self.structures if s.clock_bounding or s.atomic),
            key=lambda s: s.delay_ps,
        )

    def rows(self) -> list[tuple[str, float, str]]:
        """(label, delay_ps, flags) rows for every structure, in
        registry order; flags mark atomic loops and the clock bound."""
        out = []
        for entry in self.structures:
            flags = []
            if entry.atomic:
                flags.append("atomic")
            if entry.clock_bounding:
                flags.append("bounds-clock")
            out.append((entry.label, entry.delay_ps, ", ".join(flags)))
        return out

    def format_report(self) -> str:
        """Aligned per-structure breakdown with the two bounds."""
        lines = [f"{self.config.name} @ {self.tech.name}"]
        for label, delay, flags in self.rows():
            note = f"  [{flags}]" if flags else ""
            lines.append(f"  {label:46s} {delay:8.1f} ps{note}")
        lines.append(
            f"  clock bound {self.clock_ps:8.1f} ps "
            f"({self.frequency_ghz:.2f} GHz) <- {self.bounding_structure.label}"
        )
        lines.append(
            f"  critical path {self.critical_path_ps:6.1f} ps "
            f"<- {self.critical_structure.label}"
        )
        return "\n".join(lines)


def critical_path(config: MachineConfig, tech: Technology) -> CriticalPath:
    """Build the full critical path of a machine at a technology.

    Every registered structure contributes its entries, with all
    geometry derived from ``config``.
    """
    structures: list[StructureDelay] = []
    for builder in DELAY_MODEL_REGISTRY.values():
        structures.extend(builder(config, tech))
    return CriticalPath(config=config, tech=tech, structures=tuple(structures))


def clock_ps(config: MachineConfig, tech: Technology) -> float:
    """The clock period (ps) a machine supports at a technology."""
    return critical_path(config, tech).clock_ps
