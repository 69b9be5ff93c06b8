"""Behavioural tests of the pipeline timing model.

Each test constructs a situation with a known timing consequence
(dependence chains, branch mispredictions, cache misses, cluster
bypass latency, ...) and checks the simulator exhibits it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.experiments import serial_chain_trace
from repro.core.machines import (
    baseline_8way,
    clustered_dependence_8way,
    clustered_exec_steer_8way,
    clustered_random_8way,
    clustered_windows_8way,
    dependence_based_8way,
)
from repro.isa import assemble, run_to_trace
from repro.uarch.config import CacheConfig, ClusterConfig, MachineConfig, SteeringPolicy
from repro.obs.events import EventKind, EventTracer
from repro.uarch.pipeline import PipelineSimulator, simulate
from repro.workloads import SyntheticConfig, get_trace, synthetic_trace


def trace_of(source, cap=100_000):
    return run_to_trace(assemble(source), max_instructions=cap)


def independent_trace(length=200):
    """Loop-free straight-line code with no register dependences."""
    lines = [f"li r{3 + (i % 20)}, {i}" for i in range(length)]
    return trace_of("\n".join(lines) + "\nhalt\n")


class TestFundamentalTiming:
    def test_serial_chain_limits_ipc_to_one(self):
        trace = serial_chain_trace(300)
        stats = simulate(baseline_8way(), trace)
        assert stats.ipc < 1.2
        # ... but not much below one either: back-to-back dependent
        # issue must work (wakeup+select is atomic, Section 4.5).
        assert stats.ipc > 0.85

    def test_independent_code_reaches_high_ipc(self):
        stats = simulate(baseline_8way(), independent_trace(400))
        assert stats.ipc > 5.0

    def test_ipc_never_exceeds_issue_width(self):
        for config in (baseline_8way(), dependence_based_8way()):
            stats = simulate(config, independent_trace(400))
            assert stats.ipc <= config.issue_width

    def test_everything_commits(self):
        trace = get_trace("compress", 3_000)
        stats = simulate(baseline_8way(), trace)
        assert stats.committed == len(trace)
        assert stats.fetched >= stats.committed

    def test_deterministic(self):
        trace = get_trace("gcc", 3_000)
        a = simulate(baseline_8way(), trace)
        b = simulate(baseline_8way(), trace)
        assert a.cycles == b.cycles
        assert a.mispredicts == b.mispredicts

    def test_issue_width_one(self):
        config = baseline_8way(issue_width=1)
        stats = simulate(config, independent_trace(200))
        assert stats.ipc <= 1.0

    def test_narrow_fetch_bounds_ipc(self):
        config = baseline_8way(fetch_width=2)
        stats = simulate(config, independent_trace(400))
        assert stats.ipc <= 2.05

    def test_empty_trace(self):
        stats = simulate(baseline_8way(), trace_of("halt\n"))
        assert stats.committed == 0
        assert stats.ipc == 0.0

    def test_progress_guard_raises(self):
        simulator = PipelineSimulator(baseline_8way(), serial_chain_trace(100))
        with pytest.raises(RuntimeError, match="forward progress"):
            simulator.run(max_cycles=3)

    def test_issue_histogram_covers_cycles(self):
        trace = get_trace("perl", 2_000)
        stats = simulate(baseline_8way(), trace)
        assert sum(stats.issue_histogram.values()) == stats.cycles
        issued = sum(k * v for k, v in stats.issue_histogram.items())
        assert issued == len(trace)


class TestBranches:
    def test_predictable_loop_is_cheap(self):
        # A counted loop's branch is all-taken except the exit.
        source = """
            main: li r1, 200
            loop: addiu r1, r1, -1
            bgtz r1, loop
            halt
        """
        stats = simulate(baseline_8way(), trace_of(source))
        assert stats.branch_accuracy > 0.9

    def test_mispredicts_cost_cycles(self):
        # Same instruction mix; one trace has predictable branches,
        # the other coin-flip branches.
        easy = synthetic_trace(
            SyntheticConfig(length=4_000, branch_taken_probability=1.0, seed=5)
        )
        hard = synthetic_trace(
            SyntheticConfig(length=4_000, branch_taken_probability=0.5, seed=5)
        )
        config = baseline_8way()
        easy_stats = simulate(config, easy)
        hard_stats = simulate(config, hard)
        assert hard_stats.mispredicts > easy_stats.mispredicts
        assert hard_stats.ipc < easy_stats.ipc

    def test_unconditional_jumps_never_mispredict(self):
        source = """
            main: li r1, 300
            loop: addiu r1, r1, -1
            b cont
            cont: bgtz r1, loop
            halt
        """
        stats = simulate(baseline_8way(), trace_of(source))
        # Mispredicts can only come from the conditional branch.
        assert stats.mispredicts <= stats.branch_lookups
        assert stats.branch_lookups == 300


class TestMemorySystem:
    def test_hot_line_hits(self):
        source = """
            .data
            x: .word 1
            .text
            main: la r1, x
            li r2, 200
            loop: lw r3, 0(r1)
            addiu r2, r2, -1
            bgtz r2, loop
            halt
        """
        stats = simulate(baseline_8way(), trace_of(source))
        assert stats.cache_miss_rate < 0.05

    def test_streaming_misses_slow_execution(self):
        def strided(stride):
            return trace_of(f"""
                .data
                buf: .space 65536
                .text
                main: la r1, buf
                li r2, 400
                loop: lw r3, 0(r1)
                addiu r1, r1, {stride}
                addiu r2, r2, -1
                bgtz r2, loop
                halt
            """)

        config = baseline_8way()
        dense = simulate(config, strided(4))
        sparse = simulate(config, strided(64))
        assert sparse.cache_miss_rate > dense.cache_miss_rate
        assert sparse.ipc < dense.ipc

    def test_load_waits_for_prior_store_addresses(self):
        # The store's address depends on a long chain; the dependent
        # load (to a different address!) must still wait for it
        # (Table 3: loads execute when all prior store addresses are
        # known).
        chain = "\n".join("addu r1, r1, r2" for _ in range(30))
        source = f"""
            .data
            a: .word 5
            b: .space 256
            .text
            main: li r1, 0
            li r2, 4
            la r4, a
            {chain}
            la r3, b
            addu r3, r3, r1
            sw r2, 0(r3)
            lw r5, 0(r4)
            halt
        """
        trace = trace_of(source)
        simulator = PipelineSimulator(baseline_8way(), trace)
        simulator.run()
        store_seq = next(i.seq for i in trace if i.is_store)
        load_seq = next(i.seq for i in trace if i.is_load and i.seq > store_seq)
        assert simulator.issue_cycle[load_seq] >= simulator.issue_cycle[store_seq]

    def test_cache_port_limit(self):
        # More loads per cycle than ports must spread over cycles.
        lines = []
        for i in range(160):
            lines.append(f"lw r{3 + (i % 8)}, {4 * (i % 8)}(r1)")
        source = ".data\nbuf: .space 64\n.text\nmain: la r1, buf\n" + "\n".join(lines) + "\nhalt\n"
        few_ports = MachineConfig(
            name="one-port",
            cache=CacheConfig(ports=1),
        )
        many_ports = baseline_8way()
        slow = simulate(few_ports, trace_of(source))
        fast = simulate(many_ports, trace_of(source))
        assert slow.cycles > fast.cycles
        assert slow.ipc <= 1.05  # one memory op per cycle

    def test_store_forwarding_counted(self):
        source = """
            .data
            x: .space 8
            .text
            main: la r1, x
            li r2, 9
            sw r2, 0(r1)
            lw r3, 0(r1)
            halt
        """
        stats = simulate(baseline_8way(), trace_of(source))
        assert stats.store_forwards >= 1


class TestWindowAndFifos:
    def test_small_window_hurts_parallel_code(self):
        big = baseline_8way(window_size=64)
        small = baseline_8way(window_size=4)
        trace = get_trace("go", 3_000)
        assert simulate(small, trace).ipc < simulate(big, trace).ipc

    def test_fifo_issue_is_in_order_within_fifo(self):
        trace = get_trace("compress", 3_000)
        config = dependence_based_8way()
        tracer = EventTracer(capacity=None)
        simulator = PipelineSimulator(config, trace, tracer=tracer)
        simulator.run()
        # Issue order per FIFO, from the select events' FIFO origin.
        issue_order: dict[tuple[int, int], list[int]] = {}
        for event in tracer.events:
            if (event.kind is EventKind.SELECT
                    and event.detail.startswith("fifo=")):
                fifo_index = int(event.detail[len("fifo="):])
                issue_order.setdefault(
                    (event.cluster, fifo_index), []
                ).append(event.seq)
        assert issue_order
        # Instructions must leave each FIFO in increasing seq order
        # *while resident together*; across refills the sequence can
        # restart, so check monotone runs via issue cycles instead:
        for seqs in issue_order.values():
            cycles = [simulator.issue_cycle[s] for s in seqs]
            # a FIFO never issues two instructions in one cycle
            assert all(b >= a for a, b in zip(cycles, cycles[1:]))

    def test_dependence_based_close_to_baseline(self):
        trace = get_trace("go", 4_000)
        base = simulate(baseline_8way(), trace)
        dep = simulate(dependence_based_8way(), trace)
        assert dep.ipc > 0.85 * base.ipc

    def test_tiny_fifo_machine_still_completes(self):
        config = dependence_based_8way(fifo_count=2, fifo_depth=2)
        stats = simulate(config, get_trace("li", 2_000))
        assert stats.committed == 2_000

    def test_dispatch_stalls_recorded_for_tiny_buffers(self):
        config = baseline_8way(window_size=2)
        stats = simulate(config, get_trace("gcc", 1_500))
        assert stats.dispatch_stalls.get("window_full", 0) > 0


class TestClustering:
    def test_slower_intercluster_bypass_never_helps(self):
        trace = get_trace("m88ksim", 3_000)
        fast = simulate(
            clustered_dependence_8way(inter_cluster_bypass_cycles=1), trace
        )
        slow = simulate(
            clustered_dependence_8way(inter_cluster_bypass_cycles=3), trace
        )
        assert slow.ipc <= fast.ipc + 1e-9

    def test_one_cycle_bypass_matches_no_penalty(self):
        # With a 1-cycle inter-cluster bypass there is no latency
        # difference between clusters.
        trace = get_trace("perl", 2_000)
        stats = simulate(
            clustered_dependence_8way(inter_cluster_bypass_cycles=1), trace
        )
        assert stats.inter_cluster_bypass_frequency >= 0.0
        assert stats.committed == len(trace)

    def test_random_steering_worst(self):
        trace = get_trace("m88ksim", 4_000)
        random_stats = simulate(clustered_random_8way(), trace)
        dispatch_stats = simulate(clustered_windows_8way(), trace)
        exec_stats = simulate(clustered_exec_steer_8way(), trace)
        assert random_stats.ipc < dispatch_stats.ipc
        assert random_stats.ipc < exec_stats.ipc

    def test_exec_steering_close_to_ideal(self):
        trace = get_trace("gcc", 4_000)
        ideal = simulate(baseline_8way(), trace)
        exec_stats = simulate(clustered_exec_steer_8way(), trace)
        assert exec_stats.ipc > 0.90 * ideal.ipc

    def test_random_has_high_bypass_frequency(self):
        trace = get_trace("compress", 4_000)
        random_stats = simulate(clustered_random_8way(), trace)
        fifo_stats = simulate(clustered_dependence_8way(), trace)
        assert (
            random_stats.inter_cluster_bypass_frequency
            > fifo_stats.inter_cluster_bypass_frequency
        )

    def test_single_cluster_never_uses_intercluster_bypass(self):
        stats = simulate(baseline_8way(), get_trace("go", 2_000))
        assert stats.inter_cluster_bypasses == 0

    def test_clustered_machines_complete_all_workloads(self):
        trace = get_trace("vortex", 2_000)
        for config in (
            clustered_dependence_8way(),
            clustered_windows_8way(),
            clustered_exec_steer_8way(),
            clustered_random_8way(),
        ):
            stats = simulate(config, trace)
            assert stats.committed == len(trace)


class TestResourceLimits:
    def test_few_physical_registers_still_complete(self):
        config = baseline_8way(int_phys_regs=40, fp_phys_regs=40)
        stats = simulate(config, get_trace("gcc", 2_000))
        assert stats.committed == 2_000
        assert stats.dispatch_stalls.get("int_regs", 0) > 0

    def test_register_file_must_cover_isa(self):
        with pytest.raises(ValueError, match="smaller than the ISA"):
            PipelineSimulator(
                baseline_8way(int_phys_regs=32), trace_of("halt\n")
            )

    def test_small_in_flight_limit(self):
        # The in-flight limit must cover the window capacity, so a
        # tiny limit needs a matching tiny window.
        config = baseline_8way(window_size=8, max_in_flight=8)
        stats = simulate(config, independent_trace(300))
        full = baseline_8way()
        assert stats.ipc < simulate(full, independent_trace(300)).ipc

    def test_retire_width_bounds_commit(self):
        config = baseline_8way(retire_width=1)
        stats = simulate(config, independent_trace(300))
        assert stats.ipc <= 1.0


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=1_500),
    st.integers(min_value=1, max_value=500),
    st.sampled_from(["baseline", "fifo", "cluster", "random", "exec"]),
)
def test_simulator_total_and_bounded(length, seed, machine):
    """Property: any machine commits any synthetic trace exactly,
    with IPC bounded by the issue width."""
    configs = {
        "baseline": baseline_8way(),
        "fifo": dependence_based_8way(),
        "cluster": clustered_dependence_8way(),
        "random": clustered_random_8way(),
        "exec": clustered_exec_steer_8way(),
    }
    trace = synthetic_trace(SyntheticConfig(length=length, seed=seed))
    config = configs[machine]
    stats = simulate(config, trace)
    assert stats.committed == length
    assert stats.ipc <= config.issue_width
