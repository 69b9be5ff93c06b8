"""Frozen reference implementation of the pipeline timing model.

This module preserves the straightforward (pre-optimization) cycle
loop exactly as the seed revision wrote it, plus plain forms of the
two strategy hooks added since: the load-delay-tracking hold and the
per-cluster read-port budget.  It is the *oracle* for the compiled
pipeline (:mod:`repro.uarch.compile`, run by
:mod:`repro.uarch.pipeline`): the equivalence suite
(``tests/test_fast_reference_equivalence.py``) and the differential
fuzzer assert that the compiled runner produces byte-identical
:meth:`~repro.uarch.stats.SimStats.to_dict` payloads, per-instruction
timings and event timelines against this implementation for every
machine configuration and workload.

Reach it through the public escape hatch::

    from repro.uarch.pipeline import simulate
    stats = simulate(config, trace, mode="reference")

Do **not** optimize this module.  Its value is that it stays simple
enough to audit against the paper's Table 3 model by eye; every clever
trick lives (and is tested) in the code generator instead.  See
docs/performance.md for the rules that keep the two in lockstep.
"""


from __future__ import annotations

import heapq
from collections import deque

from repro.isa.emulator import Trace
from repro.isa.instructions import FP_REG_BASE, OpClass
from repro.obs.events import EventKind, EventTracer
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.config import MachineConfig, SelectionPolicy, SteeringPolicy
from repro.uarch.depend import NO_PRODUCER, dependence_info
from repro.uarch.fifos import FifoSet
from repro.uarch.predictor import GshareBranchPredictor
from repro.uarch.rename import RegisterRenamer
from repro.uarch.stats import BACKPRESSURE_CAUSES, SimStats, StallCause
from repro.uarch.steering import (
    FifoDispatchSteering,
    LeastLoadedSteering,
    ModuloSteering,
    OutstandingOperand,
    Placement,
    RandomSteering,
    SteeringView,
    WindowDispatchSteering,
)

#: Dispatch policies that pick a cluster without looking at operands.
_BLIND_POLICIES = (
    SteeringPolicy.RANDOM,
    SteeringPolicy.MODULO,
    SteeringPolicy.LEAST_LOADED,
)

_INF = float("inf")

#: Cycles after a value's arrival in a cluster until it can be read
#: from that cluster's register file instead of a bypass path (the
#: REG WRITE stage depth in Figure 1); used only for the Figure 17
#: inter-cluster bypass-frequency accounting.
REGFILE_WRITE_DELAY = 2

#: Fetch-buffer depth in multiples of the fetch width.
_FETCH_BUFFER_FACTOR = 2

#: Tie-break priority when several causes block issue in one cycle:
#: structural contention first, then memory ordering, then bypass
#: latency (higher rank wins a tie on blocked-instruction count).
_ISSUE_BLOCK_RANK = {
    StallCause.REGFILE_PORT: 5,
    StallCause.FU_CONTENTION: 4,
    StallCause.CACHE_PORT: 3,
    StallCause.LOAD_STORE_ORDER: 2,
    StallCause.INTER_CLUSTER_WAIT: 1,
    StallCause.SCHED_WAIT: 0,
}


class ReferencePipelineSimulator:
    """One machine configuration bound to one trace.

    Use :func:`simulate` for the one-shot convenience form.

    Args:
        config: The machine to model.
        trace: The committed dynamic instruction stream to replay.
        tracer: Optional :class:`~repro.obs.events.EventTracer`; when
            attached, every lifecycle step of every instruction is
            emitted as a structured event.  ``None`` (the default)
            keeps the hot path at one branch per event site.
    """

    def __init__(
        self,
        config: MachineConfig,
        trace: Trace,
        tracer: EventTracer | None = None,
    ):
        self.config = config
        self.trace = trace
        self.tracer = tracer
        self.insts = trace.insts
        self.producers = dependence_info(trace)
        self.n_clusters = len(config.clusters)
        self.extra_bypass = config.extra_bypass_latency
        # Figure 10: a wakeup+select loop pipelined over N stages
        # delays every dependent wakeup by N-1 cycles.
        self.wakeup_bubble = config.wakeup_select_stages - 1
        self.predictor = GshareBranchPredictor(config.predictor)
        self.cache = SetAssociativeCache(config.cache)
        self.stats = SimStats(machine=config.name, workload=trace.name)
        self._steering = self._build_steering()
        # The two strategy hooks (config.SCHEDULER_NAMES and
        # REGFILE_NAMES describe them), in their plain forms.
        self.load_delay_tracking = config.scheduler == "load_delay_tracking"
        self.ports_limited = config.regfile == "ports_limited"
        self._reset_state()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _build_steering(self):
        policy = self.config.steering
        if policy is SteeringPolicy.FIFO_DISPATCH:
            return FifoDispatchSteering(self.n_clusters)
        if policy is SteeringPolicy.WINDOW_DISPATCH:
            return WindowDispatchSteering(self.n_clusters)
        if policy is SteeringPolicy.RANDOM:
            return RandomSteering(self.n_clusters, seed=self.config.steering_seed)
        if policy is SteeringPolicy.MODULO:
            return ModuloSteering(self.n_clusters)
        if policy is SteeringPolicy.LEAST_LOADED:
            return LeastLoadedSteering(self.n_clusters)
        return None  # NONE and EXEC_DRIVEN place without a dispatch policy

    def _reset_state(self) -> None:
        n = len(self.insts)
        config = self.config
        self.cycle = 0
        # Per-instruction timing state.
        self.dispatched = bytearray(n)
        self.issued = bytearray(n)
        self.fetch_cycle = [0] * n
        self.dispatch_cycle = [0] * n
        self.issue_cycle = [0] * n
        self.complete_cycle = [_INF] * n
        self.commit_cycle = [0] * n
        self.cluster_of = [-1] * n
        self.pending: list[list[int] | None] = [None] * n
        self.home_cluster = [-1] * n  # cluster chosen at dispatch
        self.used_x_bypass = bytearray(n)
        # Wakeup plumbing.
        self.arrivals: dict[int, list[tuple[int, int]]] = {}
        self.waiting_on: list[list[int] | None] = [None] * n
        self.in_ready = bytearray(n)
        # Issue buffers.
        self.fifo_sets: list[FifoSet] = []
        self.fifo_of: dict[int, tuple[int, int]] = {}
        uses_fifos = any(c.uses_fifos for c in config.clusters)
        conceptual = config.steering is SteeringPolicy.WINDOW_DISPATCH
        if uses_fifos:
            self.fifo_sets = [
                FifoSet(c.fifo_count, c.fifo_depth) for c in config.clusters
            ]
        elif conceptual:
            # Section 5.6.2: each 32-entry window is modeled (for the
            # steering heuristic only) as eight FIFOs of four slots.
            self.fifo_sets = [
                FifoSet(max(1, c.window_size // 4), 4) for c in config.clusters
            ]
        self.conceptual_fifos = conceptual
        self.window_count = [0] * self.n_clusters
        # Non-compacting (position-priority) selection: track which
        # window slot each instruction occupies; lowest free slot is
        # allocated at dispatch and freed at issue.
        self.positional = config.selection is SelectionPolicy.POSITION
        self.slot_of: dict[int, int] = {}
        self.free_slots: list[list[int]] = [
            list(range(c.capacity)) for c in config.clusters
        ]
        for heap in self.free_slots:
            heapq.heapify(heap)
        self.ready_heaps: list[list[int]] = [[] for _ in range(self.n_clusters)]
        self.central_ready: list[int] = []
        # Frontend.
        self.fetch_ptr = 0
        self.next_fetch_cycle = 0
        self.pending_redirect: int | None = None
        self.fetch_buffer: deque[tuple[int, int]] = deque()  # (seq, ready cycle)
        self.fetch_buffer_cap = _FETCH_BUFFER_FACTOR * config.fetch_width
        # Resources.  Renaming is performed for real: map tables, free
        # lists, and previous-mapping release at commit.
        self.in_flight = 0
        self.int_renamer = RegisterRenamer(
            physical_registers=config.int_phys_regs, logical_registers=FP_REG_BASE
        )
        self.fp_renamer = RegisterRenamer(
            physical_registers=config.fp_phys_regs, logical_registers=FP_REG_BASE
        )
        self.prev_dest_phys: list[int | None] = [None] * n
        # Memory ordering.
        self.unissued_stores: list[int] = []
        self.inflight_store_words: dict[int, int] = {}
        self.commit_ptr = 0
        # Per-cycle stall attribution (see _attribute_cycle).
        self._dispatch_block: StallCause | None = None
        self._issue_block: StallCause | None = None
        # Load-delay tracking: last observed latency per static load
        # (pc), and the predicted completion cycle per issued load.
        self.load_latency_of_pc: dict[int, int] = {}
        self.predicted_complete: dict[int, int] = {}
        if self._steering is not None:
            self._steering.reset()

    @property
    def free_int_regs(self) -> int:
        """Free integer physical registers (from the real free list)."""
        return self.int_renamer.free_count

    @property
    def free_fp_regs(self) -> int:
        """Free floating-point physical registers."""
        return self.fp_renamer.free_count

    # ------------------------------------------------------------------
    # wakeup plumbing
    # ------------------------------------------------------------------

    def _avail_cycle(self, producer: int, cluster: int):
        """Cycle the producer's value can wake consumers in ``cluster``."""
        complete = self.complete_cycle[producer] + self.wakeup_bubble
        if self.cluster_of[producer] != cluster:
            return complete + self.extra_bypass
        return complete

    def _schedule_arrival(self, consumer: int, cluster: int, at_cycle) -> None:
        self.arrivals.setdefault(at_cycle, []).append((consumer, cluster))

    def _on_operands_ready(self, seq: int, cluster: int) -> None:
        """All operands of ``seq`` are now available in ``cluster``."""
        policy = self.config.steering
        if policy is SteeringPolicy.EXEC_DRIVEN:
            if not self.in_ready[seq]:
                self.in_ready[seq] = 1
                heapq.heappush(self.central_ready, seq)
        elif not self.config.clusters[self.home_cluster[seq]].uses_fifos:
            if cluster == self.home_cluster[seq] and not self.in_ready[seq]:
                self.in_ready[seq] = 1
                heapq.heappush(self.ready_heaps[cluster], seq)
        # FIFO clusters poll their heads each cycle instead.

    def _process_arrivals(self) -> None:
        events = self.arrivals.pop(self.cycle, None)
        if not events:
            return
        tracer = self.tracer
        for seq, cluster in events:
            counts = self.pending[seq]
            counts[cluster] -= 1
            if counts[cluster] == 0:
                if tracer is not None:
                    tracer.emit(self.cycle, EventKind.WAKEUP, seq, cluster)
                self._on_operands_ready(seq, cluster)

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit(self) -> None:
        budget = self.config.retire_width
        n = len(self.insts)
        tracer = self.tracer
        while budget and self.commit_ptr < n:
            seq = self.commit_ptr
            if not self.issued[seq] or self.complete_cycle[seq] > self.cycle - 1:
                break
            inst = self.insts[seq]
            if inst.is_store and inst.mem_addr is not None:
                word = inst.mem_addr >> 2
                count = self.inflight_store_words.get(word, 0) - 1
                if count > 0:
                    self.inflight_store_words[word] = count
                else:
                    self.inflight_store_words.pop(word, None)
            if inst.dest is not None:
                renamer = (
                    self.int_renamer if inst.dest < FP_REG_BASE else self.fp_renamer
                )
                previous = self.prev_dest_phys[seq]
                if previous is not None:
                    renamer.release(previous)
            if self.used_x_bypass[seq]:
                self.stats.inter_cluster_bypasses += 1
            if tracer is not None:
                tracer.emit(
                    self.cycle, EventKind.COMMIT, seq, self.cluster_of[seq]
                )
            self.commit_cycle[seq] = self.cycle
            self.in_flight -= 1
            self.commit_ptr += 1
            self.stats.committed += 1
            budget -= 1

    # ------------------------------------------------------------------
    # issue (wakeup already done; this is select + execute)
    # ------------------------------------------------------------------

    def _oldest_unissued_store(self):
        heap = self.unissued_stores
        while heap and self.issued[heap[0]]:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def _gather_candidates(self) -> list[tuple[int, int, int | None]]:
        """Collect issue candidates as (seq, cluster, fifo_index)."""
        candidates: list[tuple[int, int, int | None]] = []
        policy = self.config.steering
        if policy is SteeringPolicy.EXEC_DRIVEN:
            drained = []
            while self.central_ready:
                seq = heapq.heappop(self.central_ready)
                if not self.issued[seq]:
                    drained.append(seq)
            return [(seq, -1, None) for seq in drained]
        for cluster_index, cluster in enumerate(self.config.clusters):
            if cluster.uses_fifos:
                counts_needed = self.pending
                for fifo_index, head in self.fifo_sets[cluster_index].heads():
                    counts = counts_needed[head]
                    if counts is not None and counts[cluster_index] == 0:
                        candidates.append((head, cluster_index, fifo_index))
            else:
                heap = self.ready_heaps[cluster_index]
                drained = []
                while heap:
                    seq = heapq.heappop(heap)
                    if not self.issued[seq]:
                        drained.append(seq)
                for seq in drained:
                    candidates.append((seq, cluster_index, None))
        if self.positional:
            candidates.sort(
                key=lambda item: (self.slot_of.get(item[0], item[0]), item[0])
            )
        else:
            candidates.sort()
        return candidates

    def _predicted_unready(self, seq: int) -> bool:
        """Load-delay tracking (Diavastos & Carlson): True while a
        producing load of ``seq`` is predicted still in flight."""
        for producer in self.producers[seq]:
            if producer == NO_PRODUCER:
                continue
            if self.insts[producer].op_class is not OpClass.LOAD:
                continue
            if self.predicted_complete.get(producer, 0) > self.cycle:
                return True
        return False

    def _on_load_issue(self, seq: int, latency: int) -> None:
        """Load-delay tracking feedback: predict this load's latency
        from the last one at its pc, then train on the actual one."""
        pc = self.insts[seq].pc
        predicted = self.load_latency_of_pc.get(
            pc, self.config.cache.hit_cycles
        )
        self.predicted_complete[seq] = (
            self.cycle + predicted + self.wakeup_bubble
        )
        self.load_latency_of_pc[pc] = latency

    def _requeue(self, leftovers: list[tuple[int, int, int | None]]) -> None:
        """Return unissued window candidates to their ready heaps."""
        policy = self.config.steering
        for seq, cluster, _fifo in leftovers:
            if policy is SteeringPolicy.EXEC_DRIVEN:
                heapq.heappush(self.central_ready, seq)
            elif not self.config.clusters[cluster].uses_fifos:
                heapq.heappush(self.ready_heaps[cluster], seq)

    def _pick_exec_cluster(
        self, seq: int, fu_budget: list[int]
    ) -> tuple[int | None, StallCause | None]:
        """Execution-driven steering (Section 5.6.1): choose the
        cluster that provides the source values first, if it has a
        free unit; otherwise the other, if usable; else defer.

        Returns:
            ``(cluster, None)`` on success, or ``(None, cause)`` when
            deferred -- :data:`StallCause.INTER_CLUSTER_WAIT` if a
            free unit exists but the operands have not yet crossed the
            bypass to it, else :data:`StallCause.FU_CONTENTION`.
        """
        avail = [0, 0]
        for k in range(self.n_clusters):
            worst = 0
            for producer in self.producers[seq]:
                if producer == NO_PRODUCER:
                    continue
                cycle = self._avail_cycle(producer, k)
                if cycle > worst:
                    worst = cycle
            avail[k] = worst
        order = sorted(range(self.n_clusters), key=lambda k: (avail[k], k))
        for k in order:
            if avail[k] <= self.cycle and fu_budget[k] > 0:
                return k, None
        if any(budget > 0 for budget in fu_budget):
            return None, StallCause.INTER_CLUSTER_WAIT
        return None, StallCause.FU_CONTENTION

    def _load_latency(self, inst) -> int:
        word = inst.mem_addr >> 2
        if self.inflight_store_words.get(word):
            self.stats.store_forwards += 1
        return self.cache.load_latency(inst.mem_addr)

    def _issue_one(self, seq: int, cluster: int, fifo_index: int | None) -> None:
        inst = self.insts[seq]
        now = self.cycle
        tracer = self.tracer
        if tracer is not None:
            origin = (
                f"fifo={fifo_index}" if fifo_index is not None
                else f"slot={self.slot_of[seq]}" if seq in self.slot_of
                else "window"
            )
            tracer.emit(now, EventKind.SELECT, seq, cluster, detail=origin)
        if inst.op_class is OpClass.LOAD:
            latency = self._load_latency(inst)
            if self.load_delay_tracking:
                self._on_load_issue(seq, latency)
        else:
            latency = self.config.fu_latency
            if inst.is_store:
                self.cache.access(inst.mem_addr)  # write-allocate fill
                word = inst.mem_addr >> 2
                self.inflight_store_words[word] = (
                    self.inflight_store_words.get(word, 0) + 1
                )
        self.issued[seq] = 1
        self.issue_cycle[seq] = now
        self.complete_cycle[seq] = now + latency
        self.cluster_of[seq] = cluster
        if tracer is not None:
            tracer.emit(now, EventKind.ISSUE, seq, cluster)
            tracer.emit(
                now, EventKind.EXECUTE, seq, cluster,
                detail=inst.op_class.name.lower(), dur=latency,
            )
        # Leave the issue buffer.
        if fifo_index is not None:
            fifo = self.fifo_sets[cluster].fifos[fifo_index]
            fifo.pop_head()
            self.fifo_of.pop(seq, None)
        else:
            if self.conceptual_fifos:
                placement = self.fifo_of.pop(seq, None)
                if placement is not None:
                    self.fifo_sets[placement[0]].fifos[placement[1]].remove(seq)
            # The buffer slot belongs to the dispatch-time (home)
            # cluster -- for execution-driven steering that is the
            # central window, not the execution cluster chosen here.
            self.window_count[self.home_cluster[seq]] -= 1
        if self.positional:
            slot = self.slot_of.pop(seq, None)
            if slot is not None:
                heapq.heappush(self.free_slots[self.home_cluster[seq]], slot)
        # Inter-cluster bypass accounting (Figure 17 bottom): count the
        # instruction if any operand came from the other cluster and
        # had not yet been written to this cluster's register file.
        for producer in self.producers[seq]:
            if producer == NO_PRODUCER or self.cluster_of[producer] == cluster:
                continue
            arrival = self._avail_cycle(producer, cluster)
            if now < arrival + REGFILE_WRITE_DELAY:
                self.used_x_bypass[seq] = 1
                if tracer is not None:
                    tracer.emit(
                        now, EventKind.BYPASS, seq, cluster,
                        detail=f"from={self.cluster_of[producer]}",
                    )
                break
        # Wake dispatched consumers.
        waiters = self.waiting_on[seq]
        if waiters:
            for consumer in waiters:
                for k in range(self.n_clusters):
                    self._schedule_arrival(consumer, k, self._avail_cycle(seq, k))
            self.waiting_on[seq] = None
        # A resolved mispredicted branch restarts fetch.
        if self.pending_redirect == seq:
            self.pending_redirect = None
            self.next_fetch_cycle = self.complete_cycle[seq]

    def _issue(self) -> int:
        exec_driven = self.config.steering is SteeringPolicy.EXEC_DRIVEN
        budget = self.config.issue_width
        fu_budget = [c.fu_count for c in self.config.clusters]
        mem_budget = self.config.cache.ports
        oldest_store = self._oldest_unissued_store()
        leftovers: list[tuple[int, int, int | None]] = []
        issued_count = 0
        # Why ready instructions failed to issue this cycle, by cause;
        # _attribute_cycle picks the dominant one.
        blocked: dict[StallCause, int] = {}
        self._issue_block = None
        # Per-cluster register-file read ports, granted afresh each
        # cycle (the ports_limited regfile).
        read_budget = [self.config.regfile_read_ports] * self.n_clusters
        for seq, cluster, fifo_index in self._gather_candidates():
            if self.load_delay_tracking and self._predicted_unready(seq):
                blocked[StallCause.SCHED_WAIT] = (
                    blocked.get(StallCause.SCHED_WAIT, 0) + 1
                )
                leftovers.append((seq, cluster, fifo_index))
                continue
            if budget == 0:
                leftovers.append((seq, cluster, fifo_index))
                continue
            inst = self.insts[seq]
            is_mem = inst.op_class in (OpClass.LOAD, OpClass.STORE)
            if is_mem and mem_budget == 0:
                blocked[StallCause.CACHE_PORT] = (
                    blocked.get(StallCause.CACHE_PORT, 0) + 1
                )
                leftovers.append((seq, cluster, fifo_index))
                continue
            if (
                inst.op_class is OpClass.LOAD
                and oldest_store is not None
                and oldest_store < seq
            ):
                blocked[StallCause.LOAD_STORE_ORDER] = (
                    blocked.get(StallCause.LOAD_STORE_ORDER, 0) + 1
                )
                leftovers.append((seq, cluster, fifo_index))
                continue
            if exec_driven:
                chosen, defer_cause = self._pick_exec_cluster(seq, fu_budget)
                if chosen is None:
                    blocked[defer_cause] = blocked.get(defer_cause, 0) + 1
                    leftovers.append((seq, cluster, fifo_index))
                    continue
                cluster = chosen
            elif fu_budget[cluster] == 0:
                blocked[StallCause.FU_CONTENTION] = (
                    blocked.get(StallCause.FU_CONTENTION, 0) + 1
                )
                leftovers.append((seq, cluster, fifo_index))
                continue
            if self.ports_limited:
                if len(inst.srcs) > read_budget[cluster]:
                    blocked[StallCause.REGFILE_PORT] = (
                        blocked.get(StallCause.REGFILE_PORT, 0) + 1
                    )
                    leftovers.append((seq, cluster, fifo_index))
                    continue
                read_budget[cluster] -= len(inst.srcs)
            self._issue_one(seq, cluster, fifo_index)
            budget -= 1
            fu_budget[cluster] -= 1
            if is_mem:
                mem_budget -= 1
            if inst.is_store:
                oldest_store = self._oldest_unissued_store()
            issued_count += 1
        if blocked:
            # The cause blocking the most ready instructions wins;
            # ties break on a fixed structural-first order.
            self._issue_block = max(
                blocked, key=lambda c: (blocked[c], _ISSUE_BLOCK_RANK[c])
            )
        self._requeue(leftovers)
        self.stats.note_issue(issued_count)
        return issued_count

    # ------------------------------------------------------------------
    # dispatch (rename + steer + insert into issue buffers)
    # ------------------------------------------------------------------

    def _outstanding_operands(self, seq: int) -> list[OutstandingOperand]:
        outstanding = []
        for producer in self.producers[seq]:
            if producer == NO_PRODUCER:
                continue
            placement = self.fifo_of.get(producer)
            if placement is None:
                continue  # already issued, or never buffered
            cluster, fifo_index = placement
            fifo = self.fifo_sets[cluster].fifos[fifo_index]
            outstanding.append(
                OutstandingOperand(
                    producer=producer,
                    cluster=cluster,
                    fifo=fifo_index,
                    is_tail=fifo.tail == producer,
                )
            )
        return outstanding

    def _place(self, seq: int) -> tuple[Placement | None, StallCause]:
        """Choose where ``seq`` dispatches to; (None, cause) = stall."""
        policy = self.config.steering
        if policy is SteeringPolicy.NONE:
            if self.window_count[0] >= self.config.clusters[0].capacity:
                return None, StallCause.WINDOW_FULL
            return Placement(cluster=0), StallCause.WINDOW_FULL
        if policy is SteeringPolicy.EXEC_DRIVEN:
            if sum(self.window_count) >= self.config.total_capacity:
                return None, StallCause.WINDOW_FULL
            return Placement(cluster=0), StallCause.WINDOW_FULL
        if policy in _BLIND_POLICIES:
            room = [
                self.config.clusters[k].capacity - self.window_count[k]
                for k in range(self.n_clusters)
            ]
            view = SteeringView(self.fifo_sets, window_room=room)
            placement = self._steering.place(view, [])
            return placement, StallCause.WINDOW_FULL
        # FIFO_DISPATCH / WINDOW_DISPATCH.
        if self.conceptual_fifos:
            room = [
                self.config.clusters[k].capacity - self.window_count[k]
                for k in range(self.n_clusters)
            ]
            view = SteeringView(self.fifo_sets, window_room=room)
        else:
            view = SteeringView(self.fifo_sets)
        placement = self._steering.place(view, self._outstanding_operands(seq))
        return placement, StallCause.NO_FIFO

    def _apply_placement(self, seq: int, placement: Placement) -> None:
        cluster = placement.cluster
        self.home_cluster[seq] = cluster
        if self.positional and self.free_slots[cluster]:
            self.slot_of[seq] = heapq.heappop(self.free_slots[cluster])
        if placement.fifo is not None:
            self.fifo_sets[cluster].fifos[placement.fifo].push(seq)
            self.fifo_of[seq] = (cluster, placement.fifo)
            if self.conceptual_fifos:
                self.window_count[cluster] += 1
        else:
            self.window_count[cluster] += 1

    def _rename_dest(self, seq: int, inst) -> None:
        """Allocate a physical destination through the real map table;
        the previous mapping is remembered and freed at commit."""
        if inst.dest < FP_REG_BASE:
            renamer = self.int_renamer
            logical_dest = inst.dest
        else:
            renamer = self.fp_renamer
            logical_dest = inst.dest - FP_REG_BASE
        logical_srcs = tuple(
            s if inst.dest < FP_REG_BASE else s - FP_REG_BASE
            for s in inst.srcs
            if (s < FP_REG_BASE) == (inst.dest < FP_REG_BASE)
        )
        [renamed] = renamer.rename_group([(logical_srcs, logical_dest)])
        self.prev_dest_phys[seq] = renamed.prev_dest
        if self.tracer is not None:
            self.tracer.emit(
                self.cycle, EventKind.RENAME, seq,
                detail=f"r{inst.dest}->p{renamed.phys_dest}",
            )

    def _init_pending(self, seq: int) -> None:
        counts = [0] * self.n_clusters
        now = self.cycle
        for producer in self.producers[seq]:
            if producer == NO_PRODUCER:
                continue
            if not self.issued[producer]:
                waiters = self.waiting_on[producer]
                if waiters is None:
                    waiters = []
                    self.waiting_on[producer] = waiters
                waiters.append(seq)
                for k in range(self.n_clusters):
                    counts[k] += 1
            else:
                for k in range(self.n_clusters):
                    arrival = self._avail_cycle(producer, k)
                    if arrival > now:
                        counts[k] += 1
                        self._schedule_arrival(seq, k, arrival)
        self.pending[seq] = counts
        policy = self.config.steering
        if policy is SteeringPolicy.EXEC_DRIVEN:
            if min(counts) == 0:
                self.in_ready[seq] = 1
                heapq.heappush(self.central_ready, seq)
        else:
            home = self.home_cluster[seq]
            if (
                not self.config.clusters[home].uses_fifos
                and counts[home] == 0
            ):
                self.in_ready[seq] = 1
                heapq.heappush(self.ready_heaps[home], seq)

    def _dispatch(self) -> int:
        budget = self.config.dispatch_width
        tracer = self.tracer
        dispatched_count = 0
        self._dispatch_block = None
        while budget and self.fetch_buffer:
            seq, ready_cycle = self.fetch_buffer[0]
            if ready_cycle > self.cycle:
                break
            inst = self.insts[seq]
            if self.in_flight >= self.config.max_in_flight:
                self._note_dispatch_block(StallCause.IN_FLIGHT)
                break
            if inst.dest is not None:
                if inst.dest < FP_REG_BASE:
                    if self.int_renamer.free_count == 0:
                        self._note_dispatch_block(StallCause.INT_REGS)
                        break
                elif self.fp_renamer.free_count == 0:
                    self._note_dispatch_block(StallCause.FP_REGS)
                    break
            placement, stall_cause = self._place(seq)
            if placement is None:
                self._note_dispatch_block(stall_cause)
                break
            self.fetch_buffer.popleft()
            self._apply_placement(seq, placement)
            if tracer is not None:
                rule = getattr(self._steering, "last_rule", "")
                fifo = placement.fifo
                tracer.emit(
                    self.cycle, EventKind.STEER, seq, placement.cluster,
                    detail=(f"fifo={fifo} {rule}".strip() if fifo is not None
                            else rule),
                )
            if inst.dest is not None:
                self._rename_dest(seq, inst)
            if tracer is not None:
                tracer.emit(
                    self.cycle, EventKind.DISPATCH, seq, placement.cluster
                )
            if inst.is_store:
                heapq.heappush(self.unissued_stores, seq)
            self.dispatched[seq] = 1
            self.dispatch_cycle[seq] = self.cycle
            self.in_flight += 1
            self._init_pending(seq)
            budget -= 1
            dispatched_count += 1
        return dispatched_count

    def _note_dispatch_block(self, cause: StallCause) -> None:
        """Record why dispatch stopped this cycle (counter + cause)."""
        self.stats.note_stall(cause)
        self._dispatch_block = cause

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _fetch(self) -> None:
        if self.cycle < self.next_fetch_cycle or self.pending_redirect is not None:
            return
        budget = self.config.fetch_width
        ready_at = self.cycle + self.config.front_end_stages
        n = len(self.insts)
        tracer = self.tracer
        while budget and self.fetch_ptr < n:
            if len(self.fetch_buffer) >= self.fetch_buffer_cap:
                break
            inst = self.insts[self.fetch_ptr]
            self.fetch_buffer.append((self.fetch_ptr, ready_at))
            self.fetch_cycle[self.fetch_ptr] = self.cycle
            if tracer is not None:
                tracer.emit(
                    self.cycle, EventKind.FETCH, self.fetch_ptr,
                    detail=inst.opcode,
                )
            self.fetch_ptr += 1
            self.stats.fetched += 1
            budget -= 1
            if inst.is_branch:
                prediction = self.predictor.predict_and_update(inst.pc, inst.taken)
                if prediction != inst.taken:
                    # Mispredicted: fetch halts until the branch
                    # executes and redirects the front end.
                    self.stats.mispredicts += 1
                    if tracer is not None:
                        tracer.emit(
                            self.cycle, EventKind.SQUASH, inst.seq,
                            detail="mispredict",
                        )
                    self.pending_redirect = inst.seq
                    self.next_fetch_cycle = _INF
                    break

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def _buffered_instructions(self) -> int:
        """Instructions currently in issue windows/FIFOs."""
        buffered = sum(self.window_count)
        if self.fifo_sets and not self.conceptual_fifos:
            buffered += sum(fs.occupancy for fs in self.fifo_sets)
        return buffered

    def step(self) -> None:
        """Advance one cycle."""
        self._process_arrivals()
        self._commit()
        issued = self._issue()
        dispatched = self._dispatch()
        self._fetch()
        self.stats.occupancy_sum += self._buffered_instructions()
        self._attribute_cycle(dispatched, issued)
        self.cycle += 1

    def _attribute_cycle(self, dispatched: int, issued: int) -> None:
        """Charge this cycle to exactly one cause.

        The partition (which :meth:`SimStats.validate` checks sums to
        total cycles):

        * dispatch progressed -> active;
        * dispatch hit backpressure (window/FIFO/in-flight full) while
          issue also moved nothing -> the issue-side culprit
          (FU contention, cache port, load-store order, inter-cluster
          wait) when one was observed, else the dispatch cause;
        * dispatch blocked on a rename/window resource -> that cause;
        * nothing to dispatch -> fetch-starved, or drain once the
          trace is exhausted.
        """
        if dispatched:
            cause = None
        elif self._dispatch_block is not None:
            cause = self._dispatch_block
            if (
                issued == 0
                and self._issue_block is not None
                and cause in BACKPRESSURE_CAUSES
            ):
                cause = self._issue_block
        elif self.fetch_ptr >= len(self.insts) and not self.fetch_buffer:
            cause = StallCause.DRAIN
        else:
            cause = StallCause.FETCH_STARVED
        self.stats.attribute_cycle(cause)

    def run(self, max_cycles: int | None = None) -> SimStats:
        """Simulate until the whole trace commits.

        Args:
            max_cycles: Safety bound; defaults to 100 cycles per
                instruction plus slack.

        Returns:
            The populated :class:`SimStats`.

        Raises:
            RuntimeError: if the pipeline fails to make progress
                within the cycle bound (a deadlock would be a
                simulator bug).
        """
        n = len(self.insts)
        if max_cycles is None:
            max_cycles = 100 * n + 1_000
        while self.commit_ptr < n:
            if self.cycle > max_cycles:
                raise RuntimeError(
                    f"no forward progress after {self.cycle} cycles "
                    f"({self.commit_ptr}/{n} committed) -- simulator bug"
                )
            self.step()
        self.stats.cycles = self.cycle
        self.stats.branch_lookups = self.predictor.lookups
        self.stats.branch_hits = self.predictor.hits
        self.stats.cache_accesses = self.cache.accesses
        self.stats.cache_misses = self.cache.misses
        return self.stats


def simulate_reference(
    config: MachineConfig,
    trace: Trace,
    max_cycles: int | None = None,
    tracer: EventTracer | None = None,
) -> SimStats:
    """Run one machine over one trace through the reference model."""
    return ReferencePipelineSimulator(config, trace, tracer=tracer).run(
        max_cycles=max_cycles
    )
