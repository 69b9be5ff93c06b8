"""Strategy conformance harness.

Load-delay tracking and the read-port budget let a machine shape swap
its issue logic or register-file model.  That flexibility is only safe if every
strategy obeys the same contract.  This suite pins that contract:

* ``SimStats`` schema validity and the stall-cycle partition
  (attribution sums to ``cycles``) on every workload;
* committed-stream equality against the emulator oracle: the trace
  *is* the emulator's committed instruction stream, and
  :func:`~repro.verify.oracle.check_timing_invariants` proves the
  simulator commits exactly that stream, in order, within the retire
  width;
* bit-level determinism (same config + trace -> identical stats);
* byte-identical behaviour of every registered shape against the
  frozen reference (the full 10x7 sweep lives in
  ``test_fast_reference_equivalence``; this is the conformance-level
  re-assertion);
* behavioural direction checks for the two strategy shapes --
  read-port starvation can only lower IPC, load-delay mispredictions
  can only delay issue -- plus the degenerate-parameter identity:
  ``ports_limited`` with a full complement of ports is behaviourally
  byte-identical to the fully-ported file;
* the config-layer validation rules that keep impossible strategy
  combinations unconstructible.
"""

import dataclasses

import pytest

from repro.core.machines import (
    MACHINE_REGISTRY,
    baseline_8way,
    dependence_based_8way,
    load_tracking_8way,
    ports_limited_8way,
)
from repro.uarch.pipeline import PipelineSimulator, simulate
from repro.uarch.pipeline_reference import simulate_reference
from repro.uarch.stats import StallCause
from repro.verify.oracle import check_timing_invariants
from repro.workloads import WORKLOAD_NAMES, get_trace
from tests.machines import ALL_MACHINES, subset

LENGTH = 1_500

#: The strategy shapes: the frozen reference gained plain forms of
#: their hooks late, so this harness also pins their contract.
POST_REFERENCE = subset("load_tracking", "ports_limited")


def test_partition_is_exhaustive():
    """The strategy shapes are registered, so every all-shape sweep
    against the reference covers them."""
    assert set(POST_REFERENCE) <= set(ALL_MACHINES)


class TestContract:
    """Schema, partition, and oracle checks for the new strategies."""

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    @pytest.mark.parametrize("shape", sorted(POST_REFERENCE))
    def test_oracle_and_schema(self, shape, workload):
        trace = get_trace(workload, LENGTH)
        config = POST_REFERENCE[shape]()
        simulator = PipelineSimulator(config, trace)
        stats = simulator.run()
        # Schema + stall partition: attribution must sum to cycles.
        stats.validate()
        assert stats.committed == len(trace)
        # Lifecycle ordering, in-order commit of the oracle's stream,
        # width enforcement, occupancy bounds.
        failures = check_timing_invariants(simulator, config, trace)
        assert failures == [], f"{shape}/{workload}: {failures}"

    @pytest.mark.parametrize("shape", sorted(POST_REFERENCE))
    def test_deterministic(self, shape):
        trace = get_trace("gcc", LENGTH)
        first = simulate(POST_REFERENCE[shape](), trace).to_dict()
        second = simulate(POST_REFERENCE[shape](), trace).to_dict()
        assert first == second

    @pytest.mark.parametrize("shape", sorted(ALL_MACHINES))
    def test_classic_strategies_match_reference(self, shape):
        trace = get_trace("m88ksim", LENGTH)
        config = ALL_MACHINES[shape]()
        compiled = simulate(config, trace).to_dict()
        reference = simulate_reference(config, trace).to_dict()
        assert compiled == reference


class TestPortsLimitedBehaviour:
    """Read-port starvation has a provable direction, not a pin.

    A fresh per-cycle budget guarantees at least one issue whenever
    candidates fit their ports, so ``REGFILE_PORT`` never *dominates*
    a full stall cycle -- the observable effect is IPC degradation,
    monotone in the port budget.
    """

    def test_ipc_monotone_in_read_ports(self):
        trace = get_trace("compress", LENGTH)
        ipcs = [
            simulate(ports_limited_8way(read_ports=ports), trace).ipc
            for ports in (2, 4, 6)
        ]
        baseline = simulate(baseline_8way(), trace).ipc
        assert ipcs[0] <= ipcs[1] <= ipcs[2] <= baseline
        # Two ports on an 8-wide machine is a real constraint.
        assert ipcs[0] < baseline

    def test_full_port_complement_is_byte_identical_to_unlimited(self):
        # 2 reads x 8-wide = 16 ports can never bind, so the strategy
        # must be a behavioural no-op (only the machine label differs).
        trace = get_trace("compress", LENGTH)
        limited = simulate(ports_limited_8way(read_ports=16), trace).to_dict()
        unlimited = simulate(baseline_8way(), trace).to_dict()
        limited.pop("machine")
        unlimited.pop("machine")
        assert limited == unlimited

    def test_port_stalls_never_dominate_a_cycle(self):
        trace = get_trace("gcc", LENGTH)
        stats = simulate(ports_limited_8way(read_ports=2), trace)
        assert stats.stall_cycles.get(StallCause.REGFILE_PORT, 0) == 0


class TestLoadDelayTrackingBehaviour:
    def test_holds_consumers_of_predicted_loads(self):
        # m88ksim has enough load-use pairs that prediction visibly
        # holds consumers: SCHED_WAIT cycles must appear.
        trace = get_trace("m88ksim", 4_000)
        stats = simulate(load_tracking_8way(), trace)
        assert stats.stall_cycles.get(StallCause.SCHED_WAIT, 0) > 0

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_never_beats_the_oracle_scheduler(self, workload):
        # Predicted ready times can only delay issue relative to the
        # conventional broadcast wakeup, never accelerate it.
        trace = get_trace(workload, LENGTH)
        ldt = simulate(load_tracking_8way(), trace).ipc
        conventional = simulate(baseline_8way(), trace).ipc
        assert ldt <= conventional + 1e-9

    def test_cycle_skip_is_disabled(self):
        # Held candidates expire at cycles no completion event marks,
        # so the scheduler opts out of cycle skipping.
        trace = get_trace("li", LENGTH)
        simulator = PipelineSimulator(load_tracking_8way(), trace)
        simulator.run()
        assert simulator.skipped_cycles == 0

    def test_reference_mode_covers_load_tracking(self):
        trace = get_trace("li", 200)
        reference = simulate(load_tracking_8way(), trace, mode="reference")
        assert reference.to_dict() == simulate(
            load_tracking_8way(), trace
        ).to_dict()


class TestConfigValidation:
    """Impossible strategy combinations fail at construction."""

    def test_ldt_requires_single_unsteered_window(self):
        with pytest.raises(ValueError, match="single unsteered"):
            dependence_based_8way(load_delay_tracking=True)
        with pytest.raises(ValueError, match="single unsteered"):
            MACHINE_REGISTRY["clustered_windows"](load_delay_tracking=True)

    def test_ports_limited_needs_two_read_ports(self):
        with pytest.raises(ValueError, match="regfile_read_ports >= 2"):
            ports_limited_8way(read_ports=1)
        with pytest.raises(ValueError, match="regfile_read_ports >= 2"):
            baseline_8way(regfile_read_ports=-1)

    def test_exec_driven_steering_incompatible_with_port_limits(self):
        with pytest.raises(ValueError, match="EXEC_DRIVEN"):
            MACHINE_REGISTRY["exec_steer"](regfile_read_ports=4)

    def test_each_choice_changes_alone(self):
        # One field per choice: dropping the port budget or the
        # load-delay tracking alone leaves the baseline machine.
        plain = dataclasses.replace(ports_limited_8way(), regfile_read_ports=0)
        assert plain.cluster_read_ports == baseline_8way().cluster_read_ports
        assert not dataclasses.replace(
            load_tracking_8way(), load_delay_tracking=False
        ).load_delay_tracking
        both = ports_limited_8way(load_delay_tracking=True)
        assert both.load_delay_tracking and both.regfile_read_ports == 4
