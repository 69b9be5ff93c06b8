"""Post-hoc structural invariants of the pipeline timing model.

Each check runs a machine over a trace, then audits the simulator's
per-instruction timing arrays for properties that must hold for *any*
correct out-of-order machine: program-order commit, width limits
actually enforced cycle by cycle, dependence-respecting issue times,
FIFO in-order issue, memory-ordering rules, and cluster port limits.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.machines import baseline_8way, dependence_based_8way
from repro.isa.instructions import OpClass
from repro.uarch.config import ClusterConfig, MachineConfig, SelectionPolicy, SteeringPolicy
from repro.uarch.depend import NO_PRODUCER, dependence_info
from repro.obs.events import EventKind, EventTracer
from repro.uarch.pipeline import PipelineSimulator
from repro.workloads import SyntheticConfig, get_trace, synthetic_trace
from tests.machines import STEERED_MACHINES

MACHINES = STEERED_MACHINES


def run(config, trace):
    simulator = PipelineSimulator(config, trace)
    simulator.run()
    return simulator


def audit(simulator):
    """Assert every machine-independent invariant on a finished run."""
    config = simulator.config
    insts = simulator.insts
    n = len(insts)
    info = dependence_info(simulator.trace)
    issue = simulator.issue_cycle
    complete = simulator.complete_cycle
    cluster = simulator.cluster_of

    issued_per_cycle: dict[int, int] = {}
    mem_per_cycle: dict[int, int] = {}
    fu_per_cycle: dict[tuple[int, int], int] = {}

    for seq in range(n):
        assert simulator.issued[seq], f"inst {seq} never issued"
        # Completion after issue, by at least the unit latency.
        assert complete[seq] >= issue[seq] + 1
        # Execution cluster is valid.
        assert 0 <= cluster[seq] < len(config.clusters)
        issued_per_cycle[issue[seq]] = issued_per_cycle.get(issue[seq], 0) + 1
        key = (issue[seq], cluster[seq])
        fu_per_cycle[key] = fu_per_cycle.get(key, 0) + 1
        if insts[seq].op_class in (OpClass.LOAD, OpClass.STORE):
            mem_per_cycle[issue[seq]] = mem_per_cycle.get(issue[seq], 0) + 1
        # Register dependences: a consumer issues no earlier than its
        # producer's value arrives in the consumer's cluster.
        for producer in info.producers[seq]:
            if producer == NO_PRODUCER:
                continue
            arrival = complete[producer] + (config.wakeup_select_stages - 1)
            if cluster[producer] != cluster[seq]:
                arrival += config.extra_bypass_latency
            assert issue[seq] >= arrival, (
                f"inst {seq} issued at {issue[seq]} before operand from "
                f"{producer} arrived at {arrival}"
            )
        # Memory ordering: loads issue only after every earlier store
        # has issued (all prior store addresses known, Table 3).
        # (Checked pairwise below for a sample to stay fast.)

    # Width limits, enforced every cycle.
    assert max(issued_per_cycle.values(), default=0) <= config.issue_width
    if mem_per_cycle:
        assert max(mem_per_cycle.values()) <= config.cache.ports
    for (cycle_, cluster_index), count in fu_per_cycle.items():
        assert count <= config.clusters[cluster_index].fu_count, (
            f"cluster {cluster_index} issued {count} at cycle {cycle_}"
        )

    # Load-after-store ordering: a load issues no earlier than every
    # earlier store (its address must be known, Table 3).
    stores = [seq for seq in range(n) if insts[seq].is_store]
    loads = [seq for seq in range(n) if insts[seq].op_class is OpClass.LOAD]
    for load in loads:
        for store in stores:
            if store > load:
                break
            assert issue[load] >= issue[store], (
                f"load {load} issued at {issue[load]} before earlier "
                f"store {store} issued at {issue[store]}"
            )

    # Commit accounting.
    assert simulator.stats.committed == n
    assert simulator.in_flight == 0
    assert simulator.free_int_regs == config.int_phys_regs - 32
    assert simulator.free_fp_regs == config.fp_phys_regs - 32


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("workload", ["compress", "li", "vortex"])
def test_invariants_on_workloads(machine, workload):
    trace = get_trace(workload, 1_500)
    audit(run(MACHINES[machine](), trace))


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_invariants_with_pipelined_window_logic(machine):
    trace = get_trace("gcc", 1_200)
    audit(run(MACHINES[machine](wakeup_select_stages=2), trace))


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=10_000),
    st.sampled_from(sorted(MACHINES)),
    st.floats(min_value=0.0, max_value=0.4),
)
def test_invariants_on_synthetic_traces(seed, machine, branch_fraction):
    trace = synthetic_trace(
        SyntheticConfig(length=600, seed=seed, branch_fraction=branch_fraction)
    )
    audit(run(MACHINES[machine](), trace))


@st.composite
def machine_configs(draw):
    """Arbitrary *valid* machine configurations across the design
    space: cluster counts, buffer organisations, widths, steering and
    selection policies."""
    n_clusters = draw(st.sampled_from([1, 2]))
    uses_fifos = draw(st.booleans())
    fu_count = draw(st.sampled_from([1, 2, 4]))
    if uses_fifos:
        cluster = ClusterConfig(
            fifo_count=draw(st.sampled_from([2, 4, 8])),
            fifo_depth=draw(st.sampled_from([2, 4, 8])),
            fu_count=fu_count,
        )
        steering = SteeringPolicy.FIFO_DISPATCH
    else:
        cluster = ClusterConfig(
            window_size=draw(st.sampled_from([4, 16, 32])), fu_count=fu_count
        )
        if n_clusters == 1:
            steering = SteeringPolicy.NONE
        else:
            steering = draw(
                st.sampled_from(
                    [
                        SteeringPolicy.WINDOW_DISPATCH,
                        SteeringPolicy.RANDOM,
                        SteeringPolicy.EXEC_DRIVEN,
                        SteeringPolicy.MODULO,
                        SteeringPolicy.LEAST_LOADED,
                    ]
                )
            )
    return MachineConfig(
        name="fuzz",
        fetch_width=draw(st.sampled_from([2, 4, 8])),
        dispatch_width=draw(st.sampled_from([2, 4, 8])),
        issue_width=draw(st.sampled_from([1, 4, 8])),
        retire_width=draw(st.sampled_from([2, 16])),
        # The limit must cover the buffers (they could never fill
        # otherwise, and MachineConfig rejects that).
        max_in_flight=max(
            draw(st.sampled_from([16, 128])), n_clusters * cluster.capacity
        ),
        wakeup_select_stages=draw(st.sampled_from([1, 2])),
        inter_cluster_bypass_cycles=draw(st.sampled_from([1, 2, 3])),
        selection=draw(st.sampled_from(list(SelectionPolicy))),
        clusters=(cluster,) * n_clusters,
        steering=steering,
    )


@settings(max_examples=25, deadline=None)
@given(machine_configs(), st.integers(min_value=1, max_value=10_000))
def test_invariants_over_design_space(config, seed):
    """Fuzz: every valid machine commits every trace and satisfies
    the structural invariants."""
    trace = synthetic_trace(SyntheticConfig(length=400, seed=seed))
    audit(run(config, trace))


@pytest.mark.parametrize("workload", ["compress", "gcc", "li", "m88ksim"])
def test_depth_one_fifos_degenerate_to_flexible_window(workload):
    """A FIFO machine with 64 depth-1 FIFOs *is* a 64-entry flexible
    window: every instruction is a head, so select sees everything,
    and capacity stalls coincide.  The two machines must agree
    cycle-for-cycle -- a strong cross-check between the window and
    FIFO implementations."""
    trace = get_trace(workload, 3_000)
    window = run(baseline_8way(window_size=64), trace)
    fifos = run(dependence_based_8way(fifo_count=64, fifo_depth=1), trace)
    assert window.cycle == fifos.cycle
    assert window.issue_cycle == fifos.issue_cycle


def test_fifo_heads_issue_in_order():
    """Within one FIFO, issue cycles must be strictly increasing for
    instructions resident at the same time (heads-only issue)."""
    trace = get_trace("m88ksim", 1_500)
    tracer = EventTracer(capacity=None)
    simulator = PipelineSimulator(dependence_based_8way(), trace, tracer=tracer)
    simulator.run()
    # Issue order per FIFO, from the select events' FIFO origin.
    order: dict[tuple[int, int], list[int]] = {}
    for event in tracer.events:
        if event.kind is EventKind.SELECT and event.detail.startswith("fifo="):
            fifo_index = int(event.detail[len("fifo="):])
            order.setdefault((event.cluster, fifo_index), []).append(event.seq)
    assert order, "FIFO machine issued nothing through FIFOs"
    for seqs in order.values():
        cycles = [simulator.issue_cycle[s] for s in seqs]
        assert all(b > a for a, b in zip(cycles, cycles[1:])), (
            "a FIFO issued two instructions in the same cycle"
        )
