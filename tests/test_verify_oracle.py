"""Tests for the architectural oracle and differential comparators.

The shadow interpreter is an *independent* re-implementation of the
ISA semantics; these tests check it agrees with the emulator on real
generated programs and that each comparator actually reports planted
disagreements (an oracle that can't fail is no oracle).
"""

import random

import pytest

from repro.isa.assembler import assemble
from repro.isa.emulator import Emulator
from repro.uarch.pipeline import PipelineSimulator
from repro.verify.generator import ProgramGenConfig, generate_source
from repro.verify.oracle import (
    check_timing_invariants,
    compare_architectural,
    compare_stats,
    shadow_run,
)
from repro.verify.sampler import sample_program
from tests.machines import ALL_MACHINES

MAX_INSTRUCTIONS = 5_000


def _run(seed: int):
    config = sample_program(random.Random(seed))
    program = assemble(generate_source(config))
    emulator = Emulator(program)
    trace = emulator.run(MAX_INSTRUCTIONS)
    return program, emulator, trace


@pytest.mark.parametrize("seed", range(8))
def test_shadow_agrees_with_emulator(seed):
    _, emulator, trace = _run(seed)
    failures = compare_architectural(emulator, trace, MAX_INSTRUCTIONS)
    assert failures == []


def test_shadow_committed_stream_matches_length():
    program, _, trace = _run(0)
    records, state = shadow_run(program, MAX_INSTRUCTIONS)
    assert state.halted
    assert len(records) == len(trace)


def test_register_tampering_is_reported():
    _, emulator, trace = _run(1)
    emulator.int_regs[5] ^= 0x1234  # plant an architectural divergence
    failures = compare_architectural(emulator, trace, MAX_INSTRUCTIONS)
    assert any("register" in line for line in failures)


def test_memory_tampering_is_reported():
    _, emulator, trace = _run(2)
    emulator.memory[0x1000_0000] = (
        emulator.memory.get(0x1000_0000, 0) ^ 0xFF
    )
    failures = compare_architectural(emulator, trace, MAX_INSTRUCTIONS)
    assert failures, "memory image divergence went unreported"


def test_compare_stats_equal_and_unequal():
    payload = {"cycles": 10, "committed": 8, "stall_cycles": {"none": 2}}
    assert compare_stats(payload, dict(payload)) == []
    tampered = dict(payload, cycles=11)
    failures = compare_stats(payload, tampered)
    assert failures
    assert any("cycles" in line for line in failures)


def test_timing_invariants_pass_on_every_machine_shape():
    _, _, trace = _run(3)
    trace.name = "oracle-test"
    for shape, factory in sorted(ALL_MACHINES.items()):
        config = factory()
        simulator = PipelineSimulator(config, trace)
        simulator.run()
        failures = check_timing_invariants(simulator, config, trace)
        assert failures == [], f"{shape}: {failures[:2]}"


def test_issue_before_operand_arrival_is_reported():
    """A record forged so a consumer issues one cycle before its
    producer's value arrives is reported as such."""
    _, _, trace = _run(3)
    config = ALL_MACHINES["clustered"]()
    simulator = PipelineSimulator(config, trace)
    simulator.run()
    assert check_timing_invariants(simulator, config, trace) == []
    seq, producer = next(
        (seq, producers[0])
        for seq, producers in enumerate(trace.real_producers)
        if producers
    )
    arrival = (simulator.complete_cycle[producer]
               + config.wakeup_select_stages - 1)
    if simulator.cluster_of[producer] != simulator.cluster_of[seq]:
        arrival += config.extra_bypass_latency
    simulator.issue_cycle[seq] = arrival - 1
    failures = check_timing_invariants(simulator, config, trace)
    assert (f"inst {seq} issued at {arrival - 1} before its operand from "
            f"inst {producer} arrived at {arrival}") in failures


def _reads_per_cycle(simulator, trace):
    reads = {}
    for seq, inst in enumerate(trace.insts):
        key = (simulator.issue_cycle[seq], simulator.cluster_of[seq])
        reads[key] = reads.get(key, 0) + len(inst.srcs)
    return reads


@pytest.mark.parametrize("workload", ["compress", "gcc", "li"])
@pytest.mark.parametrize("read_ports", [2, 3, 8])
def test_ports_limited_runs_respect_read_ports(workload, read_ports):
    from repro.core.machines import ports_limited_8way
    from repro.workloads import get_trace

    config = ports_limited_8way(read_ports=read_ports)
    trace = get_trace(workload, 2_000)
    simulator = PipelineSimulator(config, trace)
    simulator.run()
    assert check_timing_invariants(simulator, config, trace) == []


def test_register_read_port_overuse_is_reported():
    """A record forged so one cycle reads more registers than its
    cluster has read ports is reported as such."""
    _, _, trace = _run(3)
    config = ALL_MACHINES["ports_limited"]()
    simulator = PipelineSimulator(config, trace)
    simulator.run()
    assert check_timing_invariants(simulator, config, trace) == []
    reads = _reads_per_cycle(simulator, trace)
    (cycle, cluster), total = max(reads.items(), key=lambda item: item[1])
    # Move later readers of the same cluster into that cycle until it
    # reads more registers than the cluster has ports.
    for seq, inst in enumerate(trace.insts):
        if total > config.regfile_read_ports:
            break
        if (inst.srcs and simulator.cluster_of[seq] == cluster
                and simulator.issue_cycle[seq] > cycle):
            simulator.issue_cycle[seq] = cycle
            total += len(inst.srcs)
    failures = check_timing_invariants(simulator, config, trace)
    assert (f"cluster {cluster} read {total} registers at cycle {cycle} "
            f"with {config.regfile_read_ports} read ports") in failures
