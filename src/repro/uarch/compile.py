"""Per-config compiled pipelines: the one production cycle loop.

Given a frozen :class:`~repro.uarch.config.MachineConfig`,
:func:`generate_source` emits one flat Python function that runs the
*entire* cycle loop with

* every machine constant folded to a literal (widths, latencies, FU
  counts, window capacities, FIFO depths, cache geometry, predictor
  masks, the wakeup bubble, the inter-cluster bypass latency, the
  fetch-buffer cap);
* every branch a given shape can never take dropped at generation
  time: clustering and Figure-17 bypass accounting, FIFO issue
  buffers (only heads are selectable), the six steering policies,
  positional selection, the load-delay-tracking hold
  (``SCHED_WAIT``), the read-port budget (``REGFILE_PORT``), the
  random-steering and inter-cluster-wait guards on cycle skipping,
  and tracer/profiler probes for untraced, unprofiled runs;
* all run state -- predictor counters, cache sets, rename map tables
  and free lists, issue buffers, wakeup plumbing -- built as locals
  from folded constants, so the runner shares no state with the
  classes the reference model uses;
* the issue histogram and stall attribution kept as flat integer
  lists indexed by cause code, converted back to ``SimStats``' dict
  shape only at the end.

* each dispatch-time steering policy emitted inline: the Section 5.1
  FIFO heuristic with the Section 5.5 free lists (over real or
  conceptual FIFOs, the empty-FIFO search unrolled over per-FIFO
  locals), modulo, least-loaded and random steering (the
  ``repro.workloads._datagen.Lcg`` step with the seed folded in),
  their state -- current free list, rotation pointer, generator
  state -- held in locals.

Nothing in the cycle loop calls back into a strategy object; the
classes of :mod:`repro.uarch.steering` serve only the reference
model.  :func:`supports_compile` holds for every config the validator
accepts, so there is no fallback path.

The generated function is ``exec``-compiled and memoized in
:data:`_COMPILE_CACHE`, keyed by the config itself (frozen, hashable)
and the traced / profiled variant flags.  This module's
source is part of :func:`repro.core.campaign.model_fingerprint`, so a
compiler change invalidates cached cells instead of silently mixing
semantics.

**Golden-identical rule.** The compiled function replicates the
frozen reference model (:mod:`repro.uarch.pipeline_reference`)
cycle-for-cycle: same stage order, same heap pop order, same steering
decisions and RNG draws, same stall attribution and tie-breaks, and the
same no-forward-progress guard messages.  Idle-cycle fast-forward
replicates the skipped cycles' statistics exactly.  ``SimStats``,
event timelines and per-instruction timing arrays must be
byte-identical to the reference for every shape -- the two-way
equivalence matrix and the differential fuzzer both pin it.

**Profiled variant.** ``profiled=True`` adds a ``perf_counter`` probe
at each stage boundary; the five stage times (wakeup, commit,
select/issue, rename/dispatch, fetch -- the labels of
:data:`repro.obs.profiling.STAGE_LABELS`) accumulate into the
simulator's ``stage_times`` list.

``_PLANTED_BUG`` is the fuzzer self-test's sabotage knob (see
:mod:`repro.verify.selftest`); it is part of the cache key so a
planted run can never leak a buggy runner into clean runs.
"""

from __future__ import annotations

import heapq
import time
from typing import TYPE_CHECKING, Callable

from repro.isa.instructions import FP_REG_BASE
from repro.obs.events import EventKind
from repro.uarch.config import (
    MachineConfig,
    SelectionPolicy,
    SteeringPolicy,
)
from repro.uarch.stats import StallCause

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.uarch.pipeline import PipelineSimulator
    from repro.uarch.stats import SimStats

#: Deliberate miscompilation knob for the fuzzer self-test
#: (:func:`repro.verify.selftest.run_compile_selftest`).  ``None`` in
#: production; the recognised values are ``"load_hit_fold"`` (the
#: cache-miss latency branch is constant-folded to the hit latency),
#: ``"port_leak"`` (the per-cycle read-port budget is hoisted out of
#: the cycle loop, so claimed ports are never replenished and the
#: pipeline deadlocks) and ``"blind_steer"`` (the FIFO heuristic's
#: behind-the-producer rule is dropped, so every instruction takes a
#: new FIFO).  Part of the compile-cache key.
_PLANTED_BUG: str | None = None

#: The STEER trace detail of the dependence-blind policies (the
#: reference's ``last_rule`` strings).
_RULES = {
    SteeringPolicy.RANDOM: "random",
    SteeringPolicy.MODULO: "modulo",
    SteeringPolicy.LEAST_LOADED: "least_loaded",
}

#: Stable cause-code order for the flat stall counters; codegen folds
#: list indices from this tuple and the epilogue converts nonzero
#: slots back to ``SimStats``' ``{StallCause: count}`` dicts.
_CAUSES: tuple[StallCause, ...] = tuple(StallCause)
_CODE = {cause: index for index, cause in enumerate(_CAUSES)}

#: The in-memory compile cache: variant key -> runner.
_COMPILE_CACHE: dict[tuple, Callable] = {}

#: Compile-activity counters for metrics/ledger reporting.
_COUNTERS = {
    "compiles": 0,
    "cache_hits": 0,
    "compile_seconds": 0.0,
}


def supports_compile(config: MachineConfig) -> bool:
    """True when :func:`compiled_runner` covers ``config``.

    The generator knows every steering policy, selection policy,
    cluster count and FIFO geometry the config validator accepts, with
    and without load-delay tracking and a read-port budget -- so this
    holds for every valid config.
    """
    return True


def compile_cache_key(
    config: MachineConfig, traced: bool, profiled: bool = False,
) -> tuple:
    """The variant key one compiled runner is memoized under."""
    return (config, bool(traced), bool(profiled), _PLANTED_BUG)


def compile_cache_stats() -> dict:
    """Snapshot of compile/cache activity (counters + cache size)."""
    snapshot = dict(_COUNTERS)
    snapshot["cached_runners"] = len(_COMPILE_CACHE)
    return snapshot


def clear_compile_cache() -> None:
    """Drop every cached runner and zero the counters (tests)."""
    _COMPILE_CACHE.clear()
    for key in _COUNTERS:
        _COUNTERS[key] = 0.0 if key == "compile_seconds" else 0


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------


def generate_source(
    config: MachineConfig,
    traced: bool = False,
    planted: str | None = None,
    profiled: bool = False,
) -> str:
    """Emit the specialized flat run function for one machine shape.

    The returned source defines ``_compiled_run(sim, max_cycles)``:
    it builds the machine's power-on state as locals, runs the whole
    cycle loop inline, fills the simulator's timing record, and
    returns the populated ``SimStats``.  See the module docstring for
    what gets folded and dropped.
    """
    ports = bool(config.regfile_read_ports)
    bubble = config.wakeup_select_stages - 1
    cache = config.cache
    predictor = config.predictor
    # Lazy import: pipeline imports this module from simulate().
    from repro.uarch.pipeline import (
        _FETCH_BUFFER_FACTOR,
        REGFILE_WRITE_DELAY,
        fifo_geometry,
    )

    clusters = config.clusters
    n_clusters = len(clusters)
    clustered = n_clusters > 1
    policy = config.steering
    fifos = clusters[0].uses_fifos  # the validator forbids mixing
    exec_driven = policy is SteeringPolicy.EXEC_DRIVEN
    conceptual = policy is SteeringPolicy.WINDOW_DISPATCH
    # FIFO_DISPATCH / WINDOW_DISPATCH steer by outstanding operands;
    # RANDOM / MODULO / LEAST_LOADED by window room alone.
    dependence_steered = policy in (
        SteeringPolicy.FIFO_DISPATCH, SteeringPolicy.WINDOW_DISPATCH
    )
    steered = policy not in (SteeringPolicy.NONE, SteeringPolicy.EXEC_DRIVEN)
    # A spinning cycle under random steering consumes RNG draws, so
    # skipping is legal only when no placement was attempted.
    random_steered = policy is SteeringPolicy.RANDOM
    positional = config.selection is SelectionPolicy.POSITION
    ldt = config.load_delay_tracking
    # Issue candidates are bare seqs popped from one ready heap (the
    # single window, or execution-driven steering's central window),
    # or (seq, cluster, fifo) triples gathered across clusters/FIFOs.
    one_heap = not fifos and (not clustered or exec_driven)
    # Operand arrivals are tracked per cluster only where a non-home
    # cluster's count is observable: execution-driven steering picks
    # the cluster at issue, and traced runs emit every cluster's
    # WAKEUP.  Otherwise only the home cluster's count can wake an
    # instruction, so other clusters' arrivals are never scheduled
    # (they change no state; skipping over them is exact).
    all_clusters = clustered and (exec_driven or traced)
    # Only a steered cluster's window remembers where each instruction
    # was placed (execution-driven steering picks the cluster at issue).
    homed = clustered and steered
    # The cluster an issuing instruction leaves from / executes in.
    cl = "0" if one_heap and not exec_driven else "k"
    geometry = fifo_geometry(config)

    const = {
        "FETCH_W": config.fetch_width,
        "DISPATCH_W": config.dispatch_width,
        "ISSUE_W": config.issue_width,
        "RETIRE_W": config.retire_width,
        "MAX_IN_FLIGHT": config.max_in_flight,
        "FRONT_END": config.front_end_stages,
        "FU_LAT": config.fu_latency,
        "CAP0": config.clusters[0].capacity,
        "FU0": config.clusters[0].fu_count,
        "CACHE_PORTS": cache.ports,
        "FETCH_CAP": _FETCH_BUFFER_FACTOR * config.fetch_width,
        "OFFSET_BITS": cache.line_bytes.bit_length() - 1,
        "SET_MASK": cache.sets - 1,
        "ASSOC": cache.associativity,
        "HIT_LAT": cache.hit_cycles,
        "MISS_LAT": cache.miss_cycles,
        "INDEX_MASK": predictor.counters - 1,
        "HISTORY_MASK": (1 << predictor.history_bits) - 1,
        "READ_PORTS": config.regfile_read_ports,
        "N_CAUSES": len(_CAUSES),
        "C_IN_FLIGHT": _CODE[StallCause.IN_FLIGHT],
        "C_INT_REGS": _CODE[StallCause.INT_REGS],
        "C_FP_REGS": _CODE[StallCause.FP_REGS],
        "C_WINDOW_FULL": _CODE[StallCause.WINDOW_FULL],
        "C_FETCH_STARVED": _CODE[StallCause.FETCH_STARVED],
        "C_FU": _CODE[StallCause.FU_CONTENTION],
        "C_CACHE": _CODE[StallCause.CACHE_PORT],
        "C_LSO": _CODE[StallCause.LOAD_STORE_ORDER],
        "C_REGFILE": _CODE[StallCause.REGFILE_PORT],
        "C_DRAIN": _CODE[StallCause.DRAIN],
        "C_ICW": _CODE[StallCause.INTER_CLUSTER_WAIT],
        "C_SCHED": _CODE[StallCause.SCHED_WAIT],
        # Why a placement failed: no FIFO for dependence steering,
        # no window room for every other policy.
        "C_PLACE": _CODE[
            StallCause.NO_FIFO if dependence_steered
            else StallCause.WINDOW_FULL
        ],
        "EXTRA": config.extra_bypass_latency,
        "TOTAL_CAP": config.total_capacity,
    }

    def plus_bubble(expr: str) -> str:
        """Fold ``expr + wakeup_bubble`` when the bubble is zero."""
        return expr if bubble == 0 else f"{expr} + {bubble}"

    def window_count(k: str) -> str:
        """Window occupancy of cluster ``k`` (a scalar local when
        there is only one cluster)."""
        return f"window_count[{k}]" if clustered else "window_count0"

    def budget_of(name: str, k: str) -> str:
        """A per-cycle per-cluster budget (scalar with one cluster)."""
        return f"{name}[{k}]" if clustered else name

    def per_cluster(value: object) -> str:
        """Initial value of a per-cycle per-cluster budget."""
        if not clustered:
            return str(value)
        return "[" + ", ".join([str(value)] * n_clusters) + "]"

    if exec_driven:
        requeue = "heappush(central_ready, s)"
    elif one_heap:
        requeue = "heappush(ready_heap, s)"
    elif fifos:
        requeue = None  # the candidate stays at its FIFO head
    else:
        requeue = "heappush(ready_heaps[k], s)"

    def reject(counter: str | None, indent: str = " " * 12) -> None:
        """Charge a candidate to ``counter`` and leave it for later."""
        if counter is not None:
            add(f"{indent}    {counter} += 1")
        if requeue is not None:
            add(f"{indent}    {requeue}")
        add(f"{indent}    continue")

    def stall(code: str, indent: str = " " * 20) -> None:
        """Dispatch stops this cycle on ``code``."""
        add(indent + "disp_st[{%s}] += 1" % code)
        add(indent + "dispatch_block_code = {%s}" % code)
        add(indent + "break")

    capacities = [c.capacity for c in clusters]

    def has_room(k: int | str) -> str:
        """Cluster ``k``'s window has a free slot (``k`` is a literal
        cluster index or an expression)."""
        if isinstance(k, int):
            cap = capacities[k]
        elif len(set(capacities)) == 1:
            cap = capacities[0]
        else:
            cap = f"{tuple(capacities)!r}[{k}]"
        return f"{window_count(str(k))} < {cap}"

    def by_start(state: str, emit: Callable[[list[int], str], None],
                 indent: str) -> None:
        """Emit ``emit(order, indent)`` for the cluster order that
        starts at local ``state`` (one order with one cluster)."""
        if not clustered:
            emit([0], indent)
            return
        add(indent + f"if {state}:")
        emit([1, 0], indent + "    ")
        add(indent + "else:")
        emit([0, 1], indent + "    ")

    def first_with_room(order: list[int], indent: str) -> None:
        """``k`` = the first cluster of ``order`` with window room
        (advancing the modulo rotation past it); else stall."""
        for pos, c in enumerate(order):
            add(indent + f"{'elif' if pos else 'if'} {has_room(c)}:")
            add(indent + f"    k = {c}")
            if policy is SteeringPolicy.MODULO and clustered:
                add(indent + f"    rotation = {(c + 1) % n_clusters}")
        add(indent + "else:")
        stall("C_PLACE", indent + "    ")

    def new_fifo(order: list[int], indent: str) -> None:
        """``k``/``fi``/``entries`` = the lowest-index empty FIFO of
        the first cluster of ``order`` that has one (and, for
        conceptual FIFOs, window room); that cluster's free list
        becomes current.  ``k`` stays -1 when none qualifies."""
        for pos, c in enumerate(order):
            guards = ["k < 0"] if pos else []
            if conceptual:
                guards.append(has_room(c))
            inner = indent
            if guards:
                add(indent + f"if {' and '.join(guards)}:")
                inner += "    "
            for fi in range(geometry[c][0]):
                add(inner + f"{'elif' if fi else 'if'} not fifo_{c}_{fi}:")
                add(inner + ("    k = current = %d" if clustered
                             else "    k = %d") % c)
                add(inner + f"    fi = {fi}")
                add(inner + f"    entries = fifo_{c}_{fi}")

    def place() -> None:
        """Emit the steering policy's placement of ``s``: set ``k``
        (and ``fi``/``entries`` for FIFO steering) or stall."""
        base = " " * 16
        if not dependence_steered:
            if random_steered:
                # RandomSteering's Lcg draw, then the other cluster if
                # the drawn one is full.
                add(base + "rng_state = (rng_state * 1664525 + 1013904223)"
                    " & 0xFFFFFFFF")
                by_start(f"(rng_state >> 8) % {n_clusters}", first_with_room,
                         base)
            elif policy is SteeringPolicy.MODULO:
                by_start("rotation", first_with_room, base)
            elif clustered:  # LEAST_LOADED: most room, ties to cluster 0
                for c in range(n_clusters):
                    add(base + f"room{c} = {capacities[c]} - "
                        + window_count(str(c)))
                add(base + "if room1 > room0 and room1 > 0:")
                add(base + "    k = 1")
                add(base + "elif room0 > 0:")
                add(base + "    k = 0")
                add(base + "else:")
                stall("C_PLACE", base + "    ")
            else:
                first_with_room([0], base)
            return
        # Section 5.1 (with the Section 5.5 free lists): behind the
        # first of the first two outstanding producers that is its
        # FIFO's tail with room behind it, else a new FIFO.
        add(base + "k = -1")
        if planted != "blind_steer":
            depths = [depth for _count, depth in geometry]
            depth = (str(depths[0]) if len(set(depths)) == 1
                     else f"{tuple(depths)!r}[loc[0]]")
            fits = f"entries[-1] == p and len(entries) < {depth}"
            if conceptual:
                fits += " and " + has_room("loc[0]")
            add(base + "tried = 0")
            add(base + "for p in real_producers[s]:")
            add(base + "    loc = fifo_of[p]")
            add(base + "    if loc is not None:")
            add(base + "        entries = fifo_lists[loc[0]][loc[1]]")
            add(base + f"        if {fits}:")
            add(base + "            k, fi = loc")
            if traced:
                add(base + "            rule = 'behind_producer'")
            add(base + "            break")
            add(base + "        if tried:")
            add(base + "            break")
            add(base + "        tried = 1")
        add(base + "if k < 0:")
        by_start("current", new_fifo, base + "    ")
        add(base + "    if k < 0:")
        stall("C_PLACE", base + "        ")
        if traced:
            add(base + "    rule = 'new_fifo'")

    def probe(index: int) -> None:
        """Close profiled stage ``index`` and open the next."""
        if profiled:
            now, last = ("t1", "t0") if index % 2 == 0 else ("t0", "t1")
            add(f"        {now} = clock()")
            add(f"        stage_t[{index}] += {now} - {last}")

    miss_latency = "HIT_LAT" if planted == "load_hit_fold" else "MISS_LAT"

    lines: list[str] = []
    _add = lines.append

    def add(line: str) -> None:
        _add(line.format(**const) if "{" in line else line)

    add("def _compiled_run(sim, max_cycles):")
    add("    trace = sim.trace")
    add("    n = len(trace.pc)")
    add("    real_producers = trace.real_producers")
    if ports:
        # One entry per source operand: the instruction's read demand.
        add("    producers = trace.producers")
    add("    is_load = trace.is_load")
    add("    is_store = trace.is_store")
    add("    is_mem = trace.is_mem")
    add("    is_branch = trace.is_branch")
    add("    mem_addr = trace.mem_addr")
    add("    mem_word = trace.mem_word")
    add("    dest_kind = trace.dest_kind")
    add("    logical_dest = trace.logical_dest")
    add("    pc = trace.pc")
    add("    taken = trace.taken")
    add("    stats = sim.stats")
    if traced:
        add("    insts = sim.insts")
        add("    tracer = sim.tracer")
        add("    tracer_emit = tracer.emit")
        add("    dest_flat = trace.dest")
    if profiled:
        add("    stage_t = sim.stage_times")
    # The timing record, filled in place.
    add("    issued = sim.issued")
    add("    fetch_cycle = sim.fetch_cycle")
    add("    dispatch_cycle = sim.dispatch_cycle")
    add("    issue_cycle = sim.issue_cycle")
    add("    complete_cycle = sim.complete_cycle")
    add("    commit_cycle = sim.commit_cycle")
    add("    cluster_of = sim.cluster_of")
    if fifos or conceptual:
        add("    fifo_of = sim.fifo_of")
    # Power-on machine state: gshare counters and history, empty LRU
    # cache sets, and per class a map table (logical register i in
    # physical i) and the free list of the remaining registers.
    add(f"    counters = [{predictor.initial_counter}] * {predictor.counters}")
    add("    history = lookups = phits = 0")
    add(f"    cache_sets = [[] for _ in range({cache.sets})]")
    add("    cache_accesses = cache_misses = 0")
    add(f"    int_map = list(range({FP_REG_BASE}))")
    add(f"    int_free = list(range({FP_REG_BASE}, {config.int_phys_regs}))")
    add(f"    fp_map = list(range({FP_REG_BASE}))")
    add(f"    fp_free = list(range({FP_REG_BASE}, {config.fp_phys_regs}))")
    add("    prev_dest_phys = [None] * n")
    add("    arrivals = {{}}")
    if exec_driven:
        add("    central_ready = []")
    elif one_heap:
        add("    ready_heap = []")
    elif not fifos:
        add("    ready_heaps = [%s]" % ", ".join(["[]"] * n_clusters))
    if not fifos:
        add("    in_ready = bytearray(n)")
    add("    unissued_stores = []")
    add("    inflight_store_words = {{}}")
    add("    waiting_on = [None] * n")
    if homed:
        add("    home_cluster = [-1] * n")
    if clustered:
        add("    used_x_bypass = bytearray(n)")
    if fifos or conceptual:
        add("    fifo_lists = [%s]" % ", ".join(
            f"[[] for _ in range({count})]" for count, _depth in geometry))
    if fifos:
        add("    fifo_occ = 0")
    for k, (count, _depth) in enumerate(geometry):
        for fi in range(count):
            add(f"    fifo_{k}_{fi} = fifo_lists[{k}][{fi}]")
    # Steering state: the FIFO heuristic's current free list, the
    # modulo rotation pointer, the random-steering generator.
    if dependence_steered and clustered:
        add("    current = 0")
    if policy is SteeringPolicy.MODULO and clustered:
        add("    rotation = 0")
    if random_steered:
        add(f"    rng_state = {config.steering_seed & 0xFFFFFFFF}")
    if positional:
        # Lowest free window slot first; an ascending list is a heap.
        add("    slot_of = {{}}")
        add("    free_slots = [%s]" % ", ".join(
            f"list(range({capacity}))" for capacity in capacities))
    if ldt:
        # Load-delay tracking: last observed latency per static load,
        # and the predicted wakeup cycle of each issued load.
        add("    ldt_latency = {{}}")
        add("    ldt_ready = [0] * n")
    add("    pending0 = [0] * n")
    if all_clusters:
        add("    pending1 = [0] * n")
        add("    pendings = (pending0, pending1)")
    # The fetch buffer (in-order fetch, in-order dispatch) is always
    # the contiguous seq range [buf_head, fetch_ptr); the head's ready
    # cycle is its fetch cycle plus the front-end depth, so no queue
    # is kept.
    add("    cycle = commit_ptr = in_flight = fetch_ptr = buf_head = 0")
    add("    next_fetch_cycle = 0")
    add("    pending_redirect = None")
    if clustered:
        add("    window_count = " + per_cluster(0))
    else:
        add("    window_count0 = 0")
    add("    committed = fetched = mispredicts = store_forwards = 0")
    add("    occupancy_sum = active_cycles = skipped_cycles = 0")
    if clustered:
        add("    inter_cluster_bypasses = 0")
    add("    hist = [0] * %d" % (config.issue_width + 1))
    add("    stall_c = [0] * {N_CAUSES}")
    add("    disp_st = [0] * {N_CAUSES}")
    add("    last_cause_code = -1")
    if planted == "port_leak" and ports:
        # The planted miscompilation: the per-cycle budget grant is
        # hoisted out of the loop as if it were loop-invariant.
        add("    read_budget = " + per_cluster(config.regfile_read_ports))
    add("    while commit_ptr < n:")
    add("        if cycle > max_cycles:")
    add("            raise RuntimeError(")
    add("                'no forward progress after %d cycles "
        "(%d/%d committed)'")
    add("                ' -- simulator bug' % (cycle, commit_ptr, n))")
    if profiled:
        add("        t0 = clock()")

    # -- wakeup: process this cycle's scheduled operand arrivals -----
    add("        events = arrivals.pop(cycle, None)")
    add("        if events is not None:")
    if all_clusters:
        add("            for s, k in events:")
        add("                counts = pendings[k]")
        add("                cnt = counts[s] - 1")
        add("                counts[s] = cnt")
    else:
        add("            for s, %s in events:" % ("k" if clustered else "_k"))
        add("                cnt = pending0[s] - 1")
        add("                pending0[s] = cnt")
    woken = []
    if traced:
        woken.append("tracer_emit(cycle, EK_WAKEUP, s, %s)"
                     % ("k" if clustered else "0"))
    # FIFO clusters poll their heads each cycle instead.
    if exec_driven:
        woken += ["if not in_ready[s]:", "    in_ready[s] = 1",
                  "    heappush(central_ready, s)"]
    elif one_heap:
        woken += ["if not in_ready[s]:", "    in_ready[s] = 1",
                  "    heappush(ready_heap, s)"]
    elif not fifos:
        woken += ["if %snot in_ready[s]:"
                  % ("k == home_cluster[s] and " if all_clusters else ""),
                  "    in_ready[s] = 1", "    heappush(ready_heaps[k], s)"]
    if woken:
        add("                if cnt == 0:")
        for line in woken:
            add("                    " + line)
    probe(0)

    # -- commit ------------------------------------------------------
    add("        commit_before = commit_ptr")
    add("        s = commit_ptr")
    add("        if s < n and issued[s]:")
    add("            budget = {RETIRE_W}")
    add("            horizon = cycle - 1")
    add("            committed_now = 0")
    add("            while budget and s < n:")
    add("                if not issued[s] or complete_cycle[s] > horizon:")
    add("                    break")
    add("                if is_store[s]:")
    add("                    word = mem_word[s]")
    add("                    if word >= 0:")
    add("                        cnt = inflight_store_words.get(word, 0) - 1")
    add("                        if cnt > 0:")
    add("                            inflight_store_words[word] = cnt")
    add("                        else:")
    add("                            inflight_store_words.pop(word, None)")
    add("                kind = dest_kind[s]")
    add("                if kind:")
    add("                    previous = prev_dest_phys[s]")
    add("                    if previous is not None:")
    add("                        if kind == 1:")
    add("                            int_free.append(previous)")
    add("                        else:")
    add("                            fp_free.append(previous)")
    if clustered:
        add("                if used_x_bypass[s]:")
        add("                    inter_cluster_bypasses += 1")
    if traced:
        add("                tracer_emit(cycle, EK_COMMIT, s, cluster_of[s])")
    add("                commit_cycle[s] = cycle")
    add("                s += 1")
    add("                committed_now += 1")
    add("                budget -= 1")
    add("            if committed_now:")
    add("                commit_ptr = s")
    add("                in_flight -= committed_now")
    add("                committed += committed_now")
    probe(1)

    # -- issue (select + execute) ------------------------------------
    add("        budget = {ISSUE_W}")
    add("        fu_budget = " + (
        "[%s]" % ", ".join(str(c.fu_count) for c in clusters)
        if clustered else "{FU0}"))
    add("        mem_budget = {CACHE_PORTS}")
    if ports and planted != "port_leak":
        add("        read_budget = " + per_cluster(config.regfile_read_ports))
    add("        while unissued_stores and issued[unissued_stores[0]]:")
    add("            heappop(unissued_stores)")
    add("        oldest_store = unissued_stores[0] if unissued_stores else -1")
    add("        issued_count = 0")
    add("        b_fu = b_cache = b_lso = b_ports = 0")
    # Blocked-cause counters, rank-descending (the reference model's
    # _ISSUE_BLOCK_RANK).
    blocked = [("b_ports", "C_REGFILE"), ("b_fu", "C_FU"),
               ("b_cache", "C_CACHE"), ("b_lso", "C_LSO")]
    if exec_driven:
        add("        b_icw = 0")
        blocked.append(("b_icw", "C_ICW"))
    if ldt:
        add("        b_sched = 0")
        blocked.append(("b_sched", "C_SCHED"))
    add("        issue_block_code = -1")
    add("        drained = []")
    if one_heap:
        heap = "central_ready" if exec_driven else "ready_heap"
        add(f"        while {heap}:")
        add(f"            s = heappop({heap})")
        add("            if not issued[s]:")
        add("                drained.append(s)")
        # Execution-driven steering selects its central window oldest
        # first whatever the selection policy.
        if positional and not exec_driven:
            add("        drained.sort(key=lambda s: (slot_of.get(s, s), s))")
        add("        for s in drained:")
    else:
        for k, cluster in enumerate(clusters):
            if fifos:
                # Unrolled: one head probe per FIFO.
                counts = "pending%d" % (k if all_clusters else 0)
                for fi in range(cluster.fifo_count):
                    add(f"        entries = fifo_{k}_{fi}")
                    add("        if entries:")
                    add("            head = entries[0]")
                    add(f"            if {counts}[head] == 0:")
                    add(f"                drained.append((head, {k}, {fi}))")
            else:
                add(f"        heap = ready_heaps[{k}]")
                add("        while heap:")
                add("            s = heappop(heap)")
                add("            if not issued[s]:")
                add(f"                drained.append((s, {k}, None))")
        if positional:
            add("        drained.sort(key=lambda c: (slot_of.get(c[0], c[0]),"
                " c[0]))")
        else:
            add("        drained.sort()")
        add("        for s, k, fi in drained:")
    if ldt:
        # Held while a producing load is predicted still in flight.
        add("            hold = 0")
        add("            for p in real_producers[s]:")
        add("                if ldt_ready[p] > hold:")
        add("                    hold = ldt_ready[p]")
        add("            if hold > cycle:")
        reject("b_sched")
    add("            if budget == 0:")
    reject(None)
    add("            is_m = is_mem[s]")
    add("            if is_m and mem_budget == 0:")
    reject("b_cache")
    add("            if is_load[s] and -1 < oldest_store < s:")
    reject("b_lso")
    if exec_driven:
        # Section 5.6.1: the cluster that provides the operands
        # first, if it has a free unit; else the other; else defer.
        add("            at0 = at1 = 0")
        add("            for p in real_producers[s]:")
        add("                t = " + plus_bubble("complete_cycle[p]"))
        add("                if cluster_of[p]:")
        add("                    t0_ = t + {EXTRA}")
        add("                    t1_ = t")
        add("                else:")
        add("                    t0_ = t")
        add("                    t1_ = t + {EXTRA}")
        add("                if t0_ > at0:")
        add("                    at0 = t0_")
        add("                if t1_ > at1:")
        add("                    at1 = t1_")
        add("            k = -1")
        add("            if at0 <= at1:")
        add("                if at0 <= cycle and fu_budget[0] > 0:")
        add("                    k = 0")
        add("                elif at1 <= cycle and fu_budget[1] > 0:")
        add("                    k = 1")
        add("            elif at1 <= cycle and fu_budget[1] > 0:")
        add("                k = 1")
        add("            elif at0 <= cycle and fu_budget[0] > 0:")
        add("                k = 0")
        add("            if k < 0:")
        add("                if fu_budget[0] > 0 or fu_budget[1] > 0:")
        reject("b_icw", " " * 16)
        reject("b_fu")
    else:
        add(f"            if {budget_of('fu_budget', cl)} == 0:")
        reject("b_fu")
    if ports:
        read_budget = budget_of("read_budget", cl)
        add("            needed = len(producers[s])")
        add(f"            if needed > {read_budget}:")
        reject("b_ports")
        add(f"            {read_budget} -= needed")
    if traced:
        if fifos:
            origin = "'fifo=%d' % fi"
        elif positional:
            origin = "'slot=%d' % slot_of[s] if s in slot_of else 'window'"
        else:
            origin = "'window'"
        add(f"            tracer_emit(cycle, EK_SELECT, s, {cl}, "
            f"detail={origin})")
    add("            if is_load[s]:")
    add("                if inflight_store_words.get(mem_word[s]):")
    add("                    store_forwards += 1")
    add("                line = mem_addr[s] >> {OFFSET_BITS}")
    add("                ways = cache_sets[line & {SET_MASK}]")
    add("                cache_accesses += 1")
    add("                if line in ways:")
    add("                    ways.remove(line)")
    add("                    ways.append(line)")
    add("                    latency = {HIT_LAT}")
    add("                else:")
    add("                    cache_misses += 1")
    add("                    if len(ways) >= {ASSOC}:")
    add("                        del ways[0]")
    add("                    ways.append(line)")
    add("                    latency = %d" % const[miss_latency])
    if ldt:
        # Predict from the last latency seen at this pc, then train.
        add("                pcv = pc[s]")
        add("                ldt_ready[s] = " + plus_bubble(
            "cycle + ldt_latency.get(pcv, {HIT_LAT})"))
        add("                ldt_latency[pcv] = latency")
    add("            else:")
    add("                latency = {FU_LAT}")
    add("                if is_store[s]:")
    add("                    line = mem_addr[s] >> {OFFSET_BITS}")
    add("                    ways = cache_sets[line & {SET_MASK}]")
    add("                    cache_accesses += 1")
    add("                    if line in ways:")
    add("                        ways.remove(line)")
    add("                        ways.append(line)")
    add("                    else:")
    add("                        cache_misses += 1")
    add("                        if len(ways) >= {ASSOC}:")
    add("                            del ways[0]")
    add("                        ways.append(line)")
    add("                    word = mem_word[s]")
    add("                    inflight_store_words[word] = ("
        "inflight_store_words.get(word, 0) + 1)")
    add("            issued[s] = 1")
    add("            issue_cycle[s] = cycle")
    add("            complete = cycle + latency")
    add("            complete_cycle[s] = complete")
    add(f"            cluster_of[s] = {cl}")
    if traced:
        add(f"            tracer_emit(cycle, EK_ISSUE, s, {cl})")
        add(f"            tracer_emit(cycle, EK_EXECUTE, s, {cl}, "
            "detail=insts[s].op_class.name.lower(), dur=latency)")
    # Leave the issue buffer.  A window slot belongs to the home
    # cluster: the central window (cluster 0) under exec steering.
    home = "0" if exec_driven else cl
    if fifos:
        add("            fifo_lists[k][fi].pop(0)")
        add("            fifo_of[s] = None")
        add("            fifo_occ -= 1")
    else:
        if conceptual:
            add("            loc = fifo_of[s]")
            add("            if loc is not None:")
            add("                fifo_of[s] = None")
            add("                fifo_lists[loc[0]][loc[1]].remove(s)")
        add(f"            {window_count(home)} -= 1")
    if positional:
        add("            slot = slot_of.pop(s, None)")
        add("            if slot is not None:")
        add(f"                heappush(free_slots[{home}], slot)")
    if clustered:
        # Figure 17 bottom: an operand from the other cluster not yet
        # written to this cluster's register file used the bypass.
        add("            for p in real_producers[s]:")
        add("                c = cluster_of[p]")
        add("                if c != k and cycle < complete_cycle[p] + %d:"
            % (bubble + config.extra_bypass_latency + REGFILE_WRITE_DELAY))
        add("                    used_x_bypass[s] = 1")
        if traced:
            add("                    tracer_emit(cycle, EK_BYPASS, s, k, "
                "detail='from=%d' % c)")
        add("                    break")
    add("            waiters = waiting_on[s]")
    add("            if waiters:")
    add("                base = " + plus_bubble("complete"))
    if clustered and not all_clusters:
        add("                for consumer in waiters:")
        add("                    home = home_cluster[consumer]")
        add("                    at = base if home == k else base + {EXTRA}")
        add("                    bucket = arrivals.get(at)")
        add("                    if bucket is None:")
        add("                        arrivals[at] = [(consumer, home)]")
        add("                    else:")
        add("                        bucket.append((consumer, home))")
    elif clustered:
        add("                if k:")
        add("                    at0 = base + {EXTRA}")
        add("                    at1 = base")
        add("                else:")
        add("                    at0 = base")
        add("                    at1 = base + {EXTRA}")
        add("                bucket = arrivals.get(at0)")
        add("                if bucket is None:")
        add("                    bucket = arrivals[at0] = []")
        add("                bucket1 = arrivals.get(at1)")
        add("                if bucket1 is None:")
        add("                    bucket1 = arrivals[at1] = []")
        add("                for consumer in waiters:")
        add("                    bucket.append((consumer, 0))")
        add("                    bucket1.append((consumer, 1))")
    else:
        add("                bucket = arrivals.get(base)")
        add("                if bucket is None:")
        add("                    bucket = arrivals[base] = []")
        add("                for consumer in waiters:")
        add("                    bucket.append((consumer, 0))")
    add("                waiting_on[s] = None")
    add("            if pending_redirect == s:")
    add("                pending_redirect = None")
    add("                next_fetch_cycle = complete")
    add("            budget -= 1")
    add(f"            {budget_of('fu_budget', cl)} -= 1")
    add("            if is_m:")
    add("                mem_budget -= 1")
    add("            if is_store[s]:")
    add("                while unissued_stores and "
        "issued[unissued_stores[0]]:")
    add("                    heappop(unissued_stores)")
    add("                oldest_store = (unissued_stores[0] "
        "if unissued_stores else -1)")
    add("            issued_count += 1")
    # Dominant blocked cause, rank-descending so max-by-(count, rank)
    # reduces to strictly-greater-count in iteration order.
    add("        if b_fu or b_cache or b_lso or b_ports"
        + "".join(f" or {name}" for name, _ in blocked[4:]) + ":")
    add("            best = -1")
    add("            for cnt, code in (%s):" % ", ".join(
        "(%s, %d)" % (name, const[code]) for name, code in blocked))
    add("                if cnt > best:")
    add("                    best = cnt")
    add("                    issue_block_code = code")
    add("        hist[issued_count] += 1")
    probe(2)

    # -- dispatch (rename + steer + insert) --------------------------
    add("        dispatched_count = 0")
    add("        dispatch_block_code = -1")
    if random_steered:
        add("        place_called = False")
    add("        if buf_head < fetch_ptr:")
    add("            budget = {DISPATCH_W}")
    add("            while budget and buf_head < fetch_ptr:")
    add("                s = buf_head")
    add("                if fetch_cycle[s] + {FRONT_END} > cycle:")
    add("                    break")
    add("                if in_flight >= {MAX_IN_FLIGHT}:")
    stall("C_IN_FLIGHT")
    add("                kind = dest_kind[s]")
    add("                if kind:")
    add("                    if kind == 1:")
    add("                        if not int_free:")
    add("                            disp_st[{C_INT_REGS}] += 1")
    add("                            dispatch_block_code = {C_INT_REGS}")
    add("                            break")
    add("                    elif not fp_free:")
    add("                        disp_st[{C_FP_REGS}] += 1")
    add("                        dispatch_block_code = {C_FP_REGS}")
    add("                        break")
    if steered:
        if random_steered:
            add("                place_called = True")
        place()
        add("                buf_head += 1")
        if homed:
            add("                home_cluster[s] = k")
        steer_to = "k"
    else:
        if exec_driven:
            add("                if window_count[0] + window_count[1] >= "
                "{TOTAL_CAP}:")
        else:
            add("                if window_count0 >= {CAP0}:")
        stall("C_WINDOW_FULL")
        add("                buf_head += 1")
        steer_to = "0"
    if positional:
        add(f"                if free_slots[{steer_to}]:")
        add(f"                    slot_of[s] = heappop(free_slots[{steer_to}])")
    if dependence_steered:
        # ``entries`` is the chosen FIFO, which the heuristic checked
        # has room.
        add("                entries.append(s)")
        add("                fifo_of[s] = (k, fi)")
        add("                fifo_occ += 1" if fifos
            else f"                {window_count('k')} += 1")
    else:
        add(f"                {window_count(steer_to)} += 1")
    if traced:
        if dependence_steered:
            rule = "'fifo=%d %s' % (fi, rule)"
        else:
            rule = repr(_RULES.get(policy, ""))
        add(f"                tracer_emit(cycle, EK_STEER, s, {steer_to}, "
            f"detail={rule})")
    add("                if kind:")
    add("                    if kind == 1:")
    add("                        phys = int_free.pop()")
    add("                        ld = logical_dest[s]")
    add("                        prev_dest_phys[s] = int_map[ld]")
    add("                        int_map[ld] = phys")
    add("                    else:")
    add("                        phys = fp_free.pop()")
    add("                        ld = logical_dest[s]")
    add("                        prev_dest_phys[s] = fp_map[ld]")
    add("                        fp_map[ld] = phys")
    if traced:
        add("                    tracer_emit(cycle, EK_RENAME, s, "
            "detail='r%d->p%d' % (dest_flat[s], phys))")
        add(f"                tracer_emit(cycle, EK_DISPATCH, s, {steer_to})")
    add("                if is_store[s]:")
    add("                    heappush(unissued_stores, s)")
    add("                dispatch_cycle[s] = cycle")
    add("                in_flight += 1")
    if all_clusters:
        add("                count = count1 = 0")
    else:
        add("                count = 0")
    add("                for producer in real_producers[s]:")
    add("                    if not issued[producer]:")
    add("                        w = waiting_on[producer]")
    add("                        if w is None:")
    add("                            waiting_on[producer] = [s]")
    add("                        else:")
    add("                            w.append(s)")
    add("                        count += 1")
    if all_clusters:
        add("                        count1 += 1")
        add("                    else:")
        add("                        t = " + plus_bubble("complete_cycle[producer]"))
        add("                        c = cluster_of[producer]")
        for k in range(n_clusters):
            tally = "count1" if k else "count"
            add(f"                        arrival = t if c == {k} "
                "else t + {EXTRA}")
            add("                        if arrival > cycle:")
            add(f"                            {tally} += 1")
            add("                            bucket = arrivals.get(arrival)")
            add("                            if bucket is None:")
            add(f"                                arrivals[arrival] = [(s, {k})]")
            add("                            else:")
            add(f"                                bucket.append((s, {k}))")
        add("                pending0[s] = count")
        add("                pending1[s] = count1")
        if exec_driven:
            add("                if count == 0 or count1 == 0:")
            add("                    in_ready[s] = 1")
            add("                    heappush(central_ready, s)")
        elif not fifos:
            add("                if (count1 if k else count) == 0:")
            add("                    in_ready[s] = 1")
            add("                    heappush(ready_heaps[k], s)")
    else:
        home = "k" if clustered else "0"
        add("                    else:")
        add("                        arrival = "
            + plus_bubble("complete_cycle[producer]"))
        if clustered:
            add("                        if cluster_of[producer] != k:")
            add("                            arrival += {EXTRA}")
        add("                        if arrival > cycle:")
        add("                            count += 1")
        add("                            bucket = arrivals.get(arrival)")
        add("                            if bucket is None:")
        add(f"                                arrivals[arrival] = [(s, {home})]")
        add("                            else:")
        add(f"                                bucket.append((s, {home}))")
        add("                pending0[s] = count")
        if not fifos:
            add("                if count == 0:")
            add("                    in_ready[s] = 1")
            add("                    heappush(%s, s)" % (
                "ready_heaps[k]" if clustered else "ready_heap"))
    add("                budget -= 1")
    add("                dispatched_count += 1")
    probe(3)

    # -- fetch -------------------------------------------------------
    add("        fetch_before = fetch_ptr")
    add("        if (cycle >= next_fetch_cycle and pending_redirect is None"
        " and fetch_ptr < n):")
    add("            budget = {FETCH_W}")
    add("            fetched_now = 0")
    add("            while budget and fetch_ptr < n:")
    add("                if fetch_ptr - buf_head >= {FETCH_CAP}:")
    add("                    break")
    add("                fetch_cycle[fetch_ptr] = cycle")
    if traced:
        add("                tracer_emit(cycle, EK_FETCH, fetch_ptr, "
            "detail=insts[fetch_ptr].opcode)")
    add("                s = fetch_ptr")
    add("                fetch_ptr += 1")
    add("                fetched_now += 1")
    add("                budget -= 1")
    add("                if is_branch[s]:")
    add("                    idx = (pc[s] ^ history) & {INDEX_MASK}")
    add("                    counter = counters[idx]")
    add("                    prediction = counter >= 2")
    add("                    lookups += 1")
    add("                    tk = taken[s]")
    add("                    if prediction == tk:")
    add("                        phits += 1")
    add("                    if tk:")
    add("                        if counter < 3:")
    add("                            counters[idx] = counter + 1")
    add("                    elif counter > 0:")
    add("                        counters[idx] = counter - 1")
    add("                    history = ((history << 1) | tk) & {HISTORY_MASK}")
    add("                    if prediction != tk:")
    add("                        mispredicts += 1")
    if traced:
        add("                        tracer_emit(cycle, EK_SQUASH, s, "
            "detail='mispredict')")
    add("                        pending_redirect = s")
    add("                        next_fetch_cycle = INF")
    add("                        break")
    add("            fetched += fetched_now")
    probe(4)

    # -- occupancy + attribution + clock -----------------------------
    if fifos:
        buffered = "fifo_occ"
    elif clustered:
        buffered = " + ".join(f"window_count[{k}]" for k in range(n_clusters))
    else:
        buffered = "window_count0"
    add(f"        occupancy_sum += {buffered}")
    add("        if dispatched_count:")
    add("            last_cause_code = -1")
    add("            active_cycles += 1")
    add("        elif dispatch_block_code >= 0:")
    add("            cause_code = dispatch_block_code")
    add("            if (issued_count == 0 and issue_block_code >= 0 and"
        " cause_code in ({C_PLACE}, {C_IN_FLIGHT})):")
    add("                cause_code = issue_block_code")
    add("            last_cause_code = cause_code")
    add("            stall_c[cause_code] += 1")
    add("        elif fetch_ptr >= n and buf_head == fetch_ptr:")
    add("            last_cause_code = {C_DRAIN}")
    add("            stall_c[{C_DRAIN}] += 1")
    add("        else:")
    add("            last_cause_code = {C_FETCH_STARVED}")
    add("            stall_c[{C_FETCH_STARVED}] += 1")
    add("        cycle += 1")

    # -- idle-cycle fast forward (exact stat replication) ------------
    # Held load-delay-tracking candidates expire at cycles no scheduled
    # event marks, so that scheduler never skips.
    if not ldt:
        # An idle cycle mutated nothing, so every stage would repeat
        # it until an event lands -- except a clock-resolved
        # inter-cluster wait and an RNG-consuming placement attempt.
        idle = ("dispatched_count == 0 and issued_count == 0 and"
                " events is None and commit_before == commit_ptr and"
                " fetch_before == fetch_ptr")
        if random_steered:
            idle += " and not place_called"
        if exec_driven:
            idle += " and issue_block_code != {C_ICW}"
        add(f"        if ({idle}):")
        add("            best = min(arrivals) if arrivals else -1")
        add("            if commit_ptr < n and issued[commit_ptr]:")
        add("                t = complete_cycle[commit_ptr] + 1")
        add("                if best < 0 or t < best:")
        add("                    best = t")
        add("            if buf_head < fetch_ptr:")
        add("                t = fetch_cycle[buf_head] + {FRONT_END}")
        add("                if t >= cycle and (best < 0 or t < best):")
        add("                    best = t")
        add("            if (pending_redirect is None and fetch_ptr < n and"
            " fetch_ptr - buf_head < {FETCH_CAP}):")
        add("                t = next_fetch_cycle")
        add("                if t >= cycle and (best < 0 or t < best):")
        add("                    best = t")
        add("            if best < 0:")
        add("                raise RuntimeError(")
        add("                    'no forward progress possible at cycle %d:"
            " no'")
        add("                    ' scheduled event remains (%d/%d committed)"
            " --'")
        add("                    ' simulator bug' % (cycle, commit_ptr, n))")
        add("            if best > max_cycles + 1:")
        add("                best = max_cycles + 1")
        add("            skipped = best - cycle")
        add("            if skipped > 0:")
        add("                stall_c[last_cause_code] += skipped")
        add("                hist[0] += skipped")
        add("                if dispatch_block_code >= 0:")
        add("                    disp_st[dispatch_block_code] += skipped")
        add("                occupancy_sum += %s * skipped" % (
            buffered if " " not in buffered else f"({buffered})"))
        add("                cycle = best")
        add("                skipped_cycles += skipped")

    # -- epilogue: the timing record's scalars and the statistics -----
    add("    sim.cycle = cycle")
    add("    sim.skipped_cycles = skipped_cycles")
    add("    stats.committed = committed")
    add("    stats.fetched = fetched")
    add("    stats.mispredicts = mispredicts")
    add("    stats.store_forwards = store_forwards")
    add("    stats.occupancy_sum = occupancy_sum")
    add("    stats.active_cycles = active_cycles")
    if clustered:
        add("    stats.inter_cluster_bypasses = inter_cluster_bypasses")
    add("    stats.cycles = cycle")
    add("    stats.branch_lookups = lookups")
    add("    stats.branch_hits = phits")
    add("    stats.cache_accesses = cache_accesses")
    add("    stats.cache_misses = cache_misses")
    add("    stats.issue_histogram = {{count: value for count, value"
        " in enumerate(hist) if value}}")
    add("    stats.stall_cycles = {{CAUSES[code]: value for code, value"
        " in enumerate(stall_c) if value}}")
    add("    stats.dispatch_stalls = {{CAUSES[code]: value for code, value"
        " in enumerate(disp_st) if value}}")
    add("    return stats")
    return "\n".join(lines) + "\n"


def _exec_namespace() -> dict:
    """Globals the generated function runs with."""
    return {
        "heappush": heapq.heappush,
        "heappop": heapq.heappop,
        "INF": float("inf"),
        "CAUSES": _CAUSES,
        "clock": time.perf_counter,
        "EK_FETCH": EventKind.FETCH,
        "EK_SQUASH": EventKind.SQUASH,
        "EK_STEER": EventKind.STEER,
        "EK_RENAME": EventKind.RENAME,
        "EK_DISPATCH": EventKind.DISPATCH,
        "EK_WAKEUP": EventKind.WAKEUP,
        "EK_SELECT": EventKind.SELECT,
        "EK_ISSUE": EventKind.ISSUE,
        "EK_EXECUTE": EventKind.EXECUTE,
        "EK_BYPASS": EventKind.BYPASS,
        "EK_COMMIT": EventKind.COMMIT,
    }


def compiled_runner(
    config: MachineConfig, traced: bool = False, profiled: bool = False,
) -> Callable:
    """The memoized compiled run function for one machine variant."""
    key = compile_cache_key(config, traced, profiled)
    runner = _COMPILE_CACHE.get(key)
    if runner is not None:
        _COUNTERS["cache_hits"] += 1
        return runner
    start = time.perf_counter()
    source = generate_source(
        config, traced=traced, planted=_PLANTED_BUG, profiled=profiled,
    )
    namespace = _exec_namespace()
    code = compile(source, f"<compiled pipeline {config.name}>", "exec")
    exec(code, namespace)
    runner = namespace["_compiled_run"]
    _COUNTERS["compiles"] += 1
    _COUNTERS["compile_seconds"] += time.perf_counter() - start
    _COMPILE_CACHE[key] = runner
    return runner


def run_compiled(
    sim: "PipelineSimulator", max_cycles: int | None = None
) -> "SimStats":
    """Run one constructed simulator through its compiled function.

    The simulator holds the inputs and the per-instruction timing
    arrays; the whole cycle loop runs in the specialized function,
    which fills those arrays in place -- so equivalence tests can
    compare ``issue_cycle``/``commit_cycle``/... on the instance
    afterwards.  The variant follows the simulator: traced
    when a tracer is attached, profiled when ``stage_times`` is set.

    Raises:
        RuntimeError: on no-forward-progress (the guards are compiled
            into the function).
    """
    if max_cycles is None:
        max_cycles = 100 * len(sim.trace) + 1_000
    runner = compiled_runner(
        sim.config, traced=sim.tracer is not None,
        profiled=sim.stage_times is not None,
    )
    return runner(sim, max_cycles)
