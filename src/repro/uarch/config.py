"""Machine configuration for the timing simulator.

The defaults reproduce the paper's baseline simulation model (Table 3):
8-wide fetch/decode/issue, a 64-entry issue window, 128 in-flight
instructions, retire width 16, 8 symmetric single-cycle functional
units, 120 int + 120 fp physical registers, a gshare predictor with 4K
2-bit counters and 12 bits of history, and a 32 KB 2-way data cache
with 32-byte lines, 1-cycle hits, 6-cycle misses, and four load/store
ports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.instructions import FP_REG_BASE


class SelectionPolicy(enum.Enum):
    """Priority order used by the selection logic (Section 4.3).

    The paper's selection circuit is positional: the leftmost window
    entries win.  With compaction that equals oldest-first; without it
    a freed slot is re-used by a younger instruction which then jumps
    the priority queue.  Butler and Patt [5] found overall performance
    largely independent of the policy -- which the paper relies on to
    avoid analysing compaction; the selection ablation
    (:func:`repro.core.experiments.ablations`) verifies it.
    """

    OLDEST_FIRST = "oldest"  #: true age order (compacting window)
    POSITION = "position"  #: slot order (non-compacting window)


class SteeringPolicy(enum.Enum):
    """How renamed instructions are assigned to clusters/FIFOs."""

    NONE = "none"  #: single flexible window, no steering
    FIFO_DISPATCH = "fifo_dispatch"  #: Section 5.1 FIFO heuristic at dispatch
    WINDOW_DISPATCH = "window_dispatch"  #: Section 5.6.2 windows-as-FIFOs heuristic
    RANDOM = "random"  #: Section 5.6.3 random cluster choice
    EXEC_DRIVEN = "exec_driven"  #: Section 5.6.1 assignment at issue time
    MODULO = "modulo"  #: round-robin cluster choice (ablation)
    LEAST_LOADED = "least_loaded"  #: emptiest-window cluster choice (ablation)


#: Valid ``MachineConfig.scheduler`` values, the wakeup/select
#: strategies:
#:
#: * ``conventional`` -- the paper's broadcast wakeup + select over a
#:   flexible window (also drives the window-steered clustered shapes);
#: * ``fifo_steering`` -- Section 5's dependence-based FIFOs, where only
#:   FIFO heads are visible to select;
#: * ``load_delay_tracking`` -- predicted ready-time issue with
#:   real-time load-delay feedback (Diavastos & Carlson,
#:   arXiv:2109.03112): each instruction carries a ready time predicted
#:   from its producers (a load's from the last observed latency of the
#:   same static load), and a candidate predicted not yet ready is held
#:   out of select and charged to ``SCHED_WAIT``.  Holds expire at
#:   cycles no event marks, so this strategy never skips idle cycles.
SCHEDULER_NAMES = ("conventional", "fifo_steering", "load_delay_tracking")

#: Valid ``MachineConfig.regfile`` values, the register-file port
#: models:
#:
#: * ``unlimited`` -- the paper's file, ``2 x issue_width`` read ports
#:   per cluster, never a structural hazard;
#: * ``ports_limited`` -- reduced read ports in the spirit of Los
#:   (arXiv:2502.00147): each cluster has ``regfile_read_ports`` read
#:   ports per cycle, and a selected instruction whose operand reads
#:   exceed the remaining budget is denied issue and charged to
#:   ``REGFILE_PORT``.
REGFILE_NAMES = ("unlimited", "ports_limited")


@dataclass(frozen=True)
class PredictorConfig:
    """gshare predictor parameters (McFarling [13], Table 3)."""

    counters: int = 4096
    history_bits: int = 12
    initial_counter: int = 2  #: power-on counter value (2 = weakly taken)

    def __post_init__(self) -> None:
        if self.counters < 2 or self.counters & (self.counters - 1):
            raise ValueError(f"counters must be a power of two >= 2, got {self.counters}")
        if not 0 <= self.history_bits <= 30:
            raise ValueError(f"history_bits out of range: {self.history_bits}")
        if not 0 <= self.initial_counter <= 3:
            raise ValueError(f"initial_counter must be 0..3, got {self.initial_counter}")


@dataclass(frozen=True)
class CacheConfig:
    """Data-cache parameters (Table 3)."""

    size_bytes: int = 32 * 1024
    associativity: int = 2
    line_bytes: int = 32
    hit_cycles: int = 1
    miss_cycles: int = 6
    ports: int = 4

    def __post_init__(self) -> None:
        for name in ("size_bytes", "associativity", "line_bytes", "hit_cycles",
                     "miss_cycles", "ports"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        sets = self.size_bytes // (self.associativity * self.line_bytes)
        if sets < 1 or sets & (sets - 1):
            raise ValueError("size/(assoc*line) must be a power-of-two set count")
        if self.miss_cycles < self.hit_cycles:
            raise ValueError("miss_cycles must be >= hit_cycles")

    @property
    def sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class ClusterConfig:
    """One execution cluster.

    A cluster either has a flexible issue window (``fifo_count == 0``)
    or a set of in-order FIFO buffers (``fifo_count > 0``), plus its
    own functional units.  The baseline machine is a single cluster
    with a 64-entry window and 8 units; the dependence-based machine
    of Figure 13 is a single cluster with 8 FIFOs of depth 8; the
    clustered machines of Figures 15/17 use two 4-unit clusters.
    """

    #: Buffer capacity of a window cluster.  For a FIFO cluster the
    #: capacity is ``fifo_count * fifo_depth`` and this field is
    #: normalised to that product (leaving it at the class default is
    #: fine; an explicit inconsistent value is rejected), so the
    #: geometry is single-valued for every consumer -- the simulator,
    #: the delay models, and the campaign cache fingerprint.
    window_size: int = 64
    fifo_count: int = 0
    fifo_depth: int = 8
    fu_count: int = 8

    _DEFAULT_WINDOW_SIZE = 64

    def __post_init__(self) -> None:
        if self.fifo_count < 0:
            raise ValueError("fifo_count must be >= 0")
        if self.fifo_count == 0 and self.window_size < 1:
            raise ValueError("window_size must be >= 1 for a window cluster")
        if self.fifo_count > 0 and self.fifo_depth < 1:
            raise ValueError("fifo_depth must be >= 1 for a FIFO cluster")
        if self.fu_count < 1:
            raise ValueError("fu_count must be >= 1")
        if self.fifo_count > 0:
            capacity = self.fifo_count * self.fifo_depth
            if self.window_size not in (self._DEFAULT_WINDOW_SIZE, capacity):
                raise ValueError(
                    f"window_size ({self.window_size}) is inconsistent with "
                    f"the FIFO geometry: a {self.fifo_count}x{self.fifo_depth} "
                    f"cluster holds {capacity} instructions"
                )
            object.__setattr__(self, "window_size", capacity)

    @property
    def uses_fifos(self) -> bool:
        """True when issue is restricted to FIFO heads."""
        return self.fifo_count > 0

    @property
    def capacity(self) -> int:
        """Instructions the cluster's buffers can hold."""
        if self.uses_fifos:
            return self.fifo_count * self.fifo_depth
        return self.window_size


@dataclass(frozen=True)
class MachineConfig:
    """A complete simulated machine.

    The defaults are the paper's Table 3 baseline.  See
    :mod:`repro.core.machines` for factories covering every design
    point in Figures 13, 15, and 17.
    """

    name: str = "baseline-8way"
    fetch_width: int = 8
    dispatch_width: int = 8
    issue_width: int = 8
    retire_width: int = 16
    max_in_flight: int = 128
    int_phys_regs: int = 120
    fp_phys_regs: int = 120
    front_end_stages: int = 2
    fu_latency: int = 1
    #: Pipeline depth of the wakeup+select loop.  The paper treats it
    #: as atomic (1): splitting it over N stages means a selected
    #: instruction's result tags reach the wakeup logic N-1 cycles
    #: late, so dependent instructions cannot issue in consecutive
    #: cycles (Figure 10's bubble).  Values > 1 model that split.
    wakeup_select_stages: int = 1
    clusters: tuple[ClusterConfig, ...] = (ClusterConfig(),)
    steering: SteeringPolicy = SteeringPolicy.NONE
    selection: SelectionPolicy = SelectionPolicy.OLDEST_FIRST
    inter_cluster_bypass_cycles: int = 2
    cache: CacheConfig = field(default_factory=CacheConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    steering_seed: int = 12345  #: used only by random steering
    #: Wakeup/select strategy (a :data:`SCHEDULER_NAMES` entry).  The
    #: empty default derives the classic strategy from the cluster
    #: geometry -- ``fifo_steering`` when any cluster uses FIFOs, else
    #: ``conventional`` -- so every pre-existing config keeps its
    #: behaviour without naming one.
    scheduler: str = ""
    #: Register-file port model (a :data:`REGFILE_NAMES` entry).  The
    #: empty default derives ``ports_limited`` when
    #: ``regfile_read_ports`` is set, else ``unlimited``.
    regfile: str = ""
    #: Per-cluster read ports for the ``ports_limited`` model; 0 means
    #: the paper's fully-ported file (2 per issue slot).
    regfile_read_ports: int = 0

    def __post_init__(self) -> None:
        for name in ("fetch_width", "dispatch_width", "issue_width", "retire_width",
                     "max_in_flight", "fu_latency"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if min(self.int_phys_regs, self.fp_phys_regs) <= FP_REG_BASE:
            raise ValueError(
                f"physical register files smaller than the ISA: each "
                f"class needs more than its {FP_REG_BASE} architectural "
                f"registers (int_phys_regs={self.int_phys_regs}, "
                f"fp_phys_regs={self.fp_phys_regs})"
            )
        if self.front_end_stages < 0:
            raise ValueError("front_end_stages must be >= 0")
        if self.wakeup_select_stages < 1:
            raise ValueError("wakeup_select_stages must be >= 1")
        if not self.clusters:
            raise ValueError("at least one cluster is required")
        if len(self.clusters) > 2:
            raise ValueError("at most two clusters are supported")
        if self.inter_cluster_bypass_cycles < 1:
            raise ValueError("inter_cluster_bypass_cycles must be >= 1")
        needs_steering = len(self.clusters) > 1 or any(
            c.uses_fifos for c in self.clusters
        )
        if needs_steering and self.steering is SteeringPolicy.NONE:
            raise ValueError(
                "clustered or FIFO machines need a steering policy"
            )
        if self.steering is SteeringPolicy.FIFO_DISPATCH:
            if not all(c.uses_fifos for c in self.clusters):
                raise ValueError("FIFO_DISPATCH requires FIFO clusters")
        if self.steering in (SteeringPolicy.WINDOW_DISPATCH, SteeringPolicy.RANDOM,
                             SteeringPolicy.EXEC_DRIVEN, SteeringPolicy.MODULO,
                             SteeringPolicy.LEAST_LOADED):
            if any(c.uses_fifos for c in self.clusters):
                raise ValueError(f"{self.steering.value} requires window clusters")
        if self.steering is SteeringPolicy.EXEC_DRIVEN and len(self.clusters) != 2:
            raise ValueError("EXEC_DRIVEN steering models a central window "
                             "feeding exactly two clusters")
        if self.max_in_flight < self.total_capacity:
            raise ValueError(
                f"max_in_flight ({self.max_in_flight}) is smaller than the "
                f"total window/FIFO capacity ({self.total_capacity}): the "
                f"issue buffers could never fill, so the configured geometry "
                f"is unreachable"
            )
        self._normalize_strategies()

    def _normalize_strategies(self) -> None:
        """Derive/validate the scheduler and regfile strategy fields.

        The derived classic scheduler is single-valued from the
        cluster geometry, so an explicitly named classic strategy must
        match it -- a FIFO machine running the ``conventional`` gather
        path (or vice versa) would be a silently different machine
        under the same geometry.
        """
        derived = (
            "fifo_steering"
            if any(c.uses_fifos for c in self.clusters)
            else "conventional"
        )
        scheduler = self.scheduler or derived
        if scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; valid: {SCHEDULER_NAMES}"
            )
        if scheduler in ("conventional", "fifo_steering"):
            if scheduler != derived:
                raise ValueError(
                    f"scheduler {scheduler!r} contradicts the cluster "
                    f"geometry (which implies {derived!r})"
                )
        elif scheduler == "load_delay_tracking":
            # Predicted ready times replace the broadcast CAM of one
            # flexible window; steered/FIFO variants are future work.
            if (len(self.clusters) != 1 or self.clusters[0].uses_fifos
                    or self.steering is not SteeringPolicy.NONE):
                raise ValueError(
                    "load_delay_tracking models a single unsteered "
                    "window cluster"
                )
        object.__setattr__(self, "scheduler", scheduler)
        regfile = self.regfile or (
            "ports_limited" if self.regfile_read_ports > 0 else "unlimited"
        )
        if regfile not in REGFILE_NAMES:
            raise ValueError(
                f"unknown regfile {regfile!r}; valid: {REGFILE_NAMES}"
            )
        if regfile == "unlimited":
            if self.regfile_read_ports != 0:
                raise ValueError(
                    "regfile_read_ports is meaningful only with the "
                    "ports_limited regfile"
                )
        else:
            # Stores and branches read two registers; fewer ports than
            # that could never issue them.
            if self.regfile_read_ports < 2:
                raise ValueError(
                    "ports_limited needs regfile_read_ports >= 2 "
                    "(the widest instruction reads two registers)"
                )
            if self.steering is SteeringPolicy.EXEC_DRIVEN:
                raise ValueError(
                    "ports_limited is incompatible with EXEC_DRIVEN "
                    "steering (issue slots are not bound to a cluster's "
                    "register file until after selection)"
                )
        object.__setattr__(self, "regfile", regfile)

    @property
    def extra_bypass_latency(self) -> int:
        """Extra cycles a value takes to reach the *other* cluster."""
        return self.inter_cluster_bypass_cycles - 1

    @property
    def total_fu_count(self) -> int:
        """Functional units across all clusters."""
        return sum(c.fu_count for c in self.clusters)

    @property
    def total_capacity(self) -> int:
        """Window/FIFO slots across all clusters."""
        return sum(c.capacity for c in self.clusters)

    # ------------------------------------------------------------------
    # derived geometry (consumed by the delay layer)
    # ------------------------------------------------------------------

    @property
    def cluster_issue_widths(self) -> tuple[int, ...]:
        """Effective issue width per cluster.

        A cluster can issue at most its functional-unit count per
        cycle, and never more than the machine's issue width; the
        delay models size each cluster's wakeup/select and register
        ports from this, not from a re-typed number.
        """
        return tuple(
            min(self.issue_width, c.fu_count) for c in self.clusters
        )

    @property
    def cluster_read_ports(self) -> tuple[int, ...]:
        """Register-file read ports per cluster.

        The paper's sizing is two ports per issue slot
        (Section 5.5); the ``ports_limited`` model caps that at
        ``regfile_read_ports``.  The delay models size the register
        file's word lines from this, so the port reduction shows up
        in the clock as well as in IPC.
        """
        full = tuple(2 * width for width in self.cluster_issue_widths)
        if self.regfile != "ports_limited":
            return full
        return tuple(min(ports, self.regfile_read_ports) for ports in full)

    @property
    def reservation_tag_count(self) -> int:
        """Result-tag space of the dependence-based reservation table.

        The reservation table keeps one ready bit per in-flight
        destination (Section 5.3), so its size is the machine's
        in-flight limit -- 128 for the paper's Table 4 organisation.
        """
        return self.max_in_flight
