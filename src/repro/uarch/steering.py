"""Instruction steering policies (Sections 5.1 and 5.6).

A steering policy decides, at dispatch time, which cluster (and which
FIFO, for FIFO machines) each renamed instruction goes to.  Policies
see a narrow view of machine state through :class:`SteeringView` so
they stay decoupled from the pipeline internals.

These classes are the plain, readable form of each heuristic, called
only by the frozen reference model
(:mod:`repro.uarch.pipeline_reference`).  The production runners of
:mod:`repro.uarch.compile` emit the same decisions as generated code,
so the reference/compiled differential checks steering too.

Policies:

* :class:`FifoDispatchSteering` -- the paper's Section 5.1 heuristic
  over real issue FIFOs, with the two-free-list cluster extension of
  Section 5.5.
* :class:`WindowDispatchSteering` -- Section 5.6.2: the same heuristic
  run over *conceptual* FIFOs carved out of each cluster's flexible
  window.
* :class:`RandomSteering` -- Section 5.6.3 baseline: pick a random
  cluster, fall back to the other if its window is full.
* :class:`ModuloSteering` / :class:`LeastLoadedSteering` --
  dependence-blind ablation baselines (round-robin, emptiest window).

Execution-driven steering (Section 5.6.1) assigns clusters at issue
time, not dispatch time; it lives in the pipeline's select stage.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.uarch.fifos import FifoSet
from repro.workloads._datagen import Lcg


class Placement(NamedTuple):
    """Where a dispatched instruction goes."""

    cluster: int
    fifo: int | None = None  #: FIFO index within the cluster, if any


class OutstandingOperand(NamedTuple):
    """A source operand whose producer is still buffered in a FIFO."""

    producer: int  #: producer seq
    cluster: int
    fifo: int
    is_tail: bool  #: producer is the youngest entry of its FIFO


class SteeringView:
    """The machine state a steering policy may inspect.

    Attributes:
        fifo_sets: Per-cluster FIFO (or conceptual-FIFO) state.
        window_room: Per-cluster free window slots; ignored by pure
            FIFO machines (their capacity is the FIFOs themselves).
    """

    def __init__(self, fifo_sets: list[FifoSet], window_room: list[int] | None = None):
        self.fifo_sets = fifo_sets
        self.window_room = window_room

    def has_window_room(self, cluster: int) -> bool:
        """True if the cluster's window can accept an instruction."""
        if self.window_room is None:
            return True
        return self.window_room[cluster] > 0


class FifoDispatchSteering:
    """Section 5.1 heuristic (with the Section 5.5 cluster extension).

    Rules for instruction I:

    * no outstanding operands: steer to a new (empty) FIFO;
    * one outstanding operand produced by Isource in FIFO Fa: steer
      to Fa if Isource is the tail of Fa and Fa has room, else to a
      new FIFO;
    * two outstanding operands: apply the one-operand rule to the
      left; if its FIFO is unsuitable, to the right; else a new FIFO.

    If no empty FIFO is available (or the target cluster's window is
    full, for conceptual mode), dispatch stalls.

    With two clusters, empty FIFOs are drawn from a *current* free
    list; when it has no empty FIFO the other cluster's list becomes
    current -- keeping adjacent instructions in the same cluster.
    """

    def __init__(self, cluster_count: int):
        if cluster_count < 1:
            raise ValueError("cluster_count must be >= 1")
        self.cluster_count = cluster_count
        self._current_cluster = 0
        #: Rule applied by the most recent place() call (for STEER
        #: trace events): "behind_producer", "new_fifo", or "".
        self.last_rule = ""

    def reset(self) -> None:
        """Forget free-list state (for a fresh run)."""
        self._current_cluster = 0
        self.last_rule = ""

    def _behind_producer(
        self, view: SteeringView, operand: OutstandingOperand
    ) -> Placement | None:
        """Placement behind one producer, or None if unsuitable."""
        if not operand.is_tail:
            return None
        if view.fifo_sets[operand.cluster].fifos[operand.fifo].is_full:
            return None
        if not view.has_window_room(operand.cluster):
            return None
        return Placement(operand.cluster, operand.fifo)

    def _new_fifo(self, view: SteeringView) -> Placement | None:
        """Placement in an empty FIFO via the free-list discipline."""
        for attempt in range(self.cluster_count):
            cluster = (self._current_cluster + attempt) % self.cluster_count
            if not view.has_window_room(cluster):
                continue
            index = view.fifo_sets[cluster].empty_fifo_index()
            if index is not None:
                # Switching the current list only happens when the
                # current one was exhausted (attempt > 0).
                self._current_cluster = cluster
                return Placement(cluster, index)
        return None

    def place(
        self, view: SteeringView, outstanding: list[OutstandingOperand]
    ) -> Placement | None:
        """Choose a placement; None means dispatch must stall."""
        for operand in outstanding[:2]:
            placement = self._behind_producer(view, operand)
            if placement is not None:
                self.last_rule = "behind_producer"
                return placement
        placement = self._new_fifo(view)
        self.last_rule = "new_fifo" if placement is not None else ""
        return placement


class WindowDispatchSteering(FifoDispatchSteering):
    """Section 5.6.2: the FIFO heuristic over conceptual FIFOs.

    Identical decision procedure; the pipeline maintains conceptual
    FIFO state (entries leave from any slot when they issue) and
    enforces the real constraint -- per-cluster window capacity --
    through ``view.window_room``.
    """


class ModuloSteering:
    """Round-robin cluster choice (ablation baseline).

    Like random steering it ignores dependences, but it balances load
    perfectly -- separating "dependence blindness" from "load
    imbalance" when interpreting the random-steering result.
    """

    def __init__(self, cluster_count: int):
        if cluster_count < 1:
            raise ValueError("cluster_count must be >= 1")
        self.cluster_count = cluster_count
        self._next = 0
        self.last_rule = "modulo"

    def reset(self) -> None:
        """Restart the rotation (for a fresh run)."""
        self._next = 0

    def place(
        self, view: SteeringView, outstanding: list[OutstandingOperand]
    ) -> Placement | None:
        """Next cluster in rotation; the other if full; None if both."""
        for attempt in range(self.cluster_count):
            cluster = (self._next + attempt) % self.cluster_count
            if view.has_window_room(cluster):
                self._next = (cluster + 1) % self.cluster_count
                return Placement(cluster=cluster)
        return None


class LeastLoadedSteering:
    """Emptiest-window cluster choice (ablation baseline).

    Pure load balancing with no dependence awareness; ties go to the
    lower-numbered cluster.
    """

    def __init__(self, cluster_count: int):
        if cluster_count < 1:
            raise ValueError("cluster_count must be >= 1")
        self.cluster_count = cluster_count
        self.last_rule = "least_loaded"

    def reset(self) -> None:
        """Stateless; present for interface symmetry."""

    def place(
        self, view: SteeringView, outstanding: list[OutstandingOperand]
    ) -> Placement | None:
        """Cluster with the most window room; None if all are full."""
        best = None
        best_room = 0
        for cluster in range(self.cluster_count):
            room = (
                view.window_room[cluster]
                if view.window_room is not None
                else 1
            )
            if room > best_room:
                best = cluster
                best_room = room
        if best is None:
            return None
        return Placement(cluster=best)


class RandomSteering:
    """Section 5.6.3: random cluster choice (comparison baseline)."""

    def __init__(self, cluster_count: int, seed: int = 12345):
        if cluster_count < 1:
            raise ValueError("cluster_count must be >= 1")
        self.cluster_count = cluster_count
        self._rng = Lcg(seed)
        self._seed = seed
        self.last_rule = "random"

    def reset(self) -> None:
        """Restart the random sequence (for a fresh run)."""
        self._rng = Lcg(self._seed)

    def place(
        self, view: SteeringView, outstanding: list[OutstandingOperand]
    ) -> Placement | None:
        """Random cluster; the other if full; None if both full."""
        first = self._rng.next_below(self.cluster_count)
        for attempt in range(self.cluster_count):
            cluster = (first + attempt) % self.cluster_count
            if view.has_window_room(cluster):
                return Placement(cluster=cluster)
        return None
