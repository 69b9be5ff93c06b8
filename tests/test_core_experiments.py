"""Tests for machine factories, experiment drivers, and speedups."""

import pytest

from repro.core.campaign import run_campaign
from repro.core.experiments import figure_configs
from repro.core.machines import (
    baseline_8way,
    clustered_dependence_8way,
    clustered_exec_steer_8way,
    clustered_random_8way,
    clustered_windows_8way,
    dependence_based_8way,
    fig17_machines,
)
from repro.core.speedup import clock_adjusted_speedup
from repro.technology import TECH_018
from repro.uarch.config import SteeringPolicy
from repro.workloads import WORKLOAD_NAMES

#: Short runs keep the suite fast; shape assertions are tolerant.
N = 4_000


def _figure(which):
    result, _ = run_campaign(figure_configs(which), max_instructions=N,
                             name=which)
    return result


@pytest.fixture(scope="module")
def fig13():
    return _figure("fig13")


@pytest.fixture(scope="module")
def fig15():
    return _figure("fig15")


@pytest.fixture(scope="module")
def fig17():
    return _figure("fig17")


class TestMachineFactories:
    def test_baseline_matches_table3(self):
        config = baseline_8way()
        assert config.issue_width == 8
        assert config.clusters[0].window_size == 64
        assert config.steering is SteeringPolicy.NONE

    def test_dependence_based_is_8x8_fifos(self):
        config = dependence_based_8way()
        assert config.clusters[0].fifo_count == 8
        assert config.clusters[0].fifo_depth == 8
        assert config.steering is SteeringPolicy.FIFO_DISPATCH

    def test_clustered_dependence_is_2x4way(self):
        config = clustered_dependence_8way()
        assert len(config.clusters) == 2
        assert all(c.fu_count == 4 for c in config.clusters)
        assert all(c.fifo_count == 4 for c in config.clusters)
        assert config.inter_cluster_bypass_cycles == 2

    def test_window_variants(self):
        assert clustered_windows_8way().steering is SteeringPolicy.WINDOW_DISPATCH
        assert clustered_exec_steer_8way().steering is SteeringPolicy.EXEC_DRIVEN
        assert clustered_random_8way().steering is SteeringPolicy.RANDOM

    def test_fig17_has_five_machines(self):
        machines = fig17_machines()
        assert len(machines) == 5
        assert "1-cluster.1window" in machines
        assert "2-cluster.windows.random_steer" in machines

    def test_overrides_flow_through(self):
        config = baseline_8way(issue_width=4)
        assert config.issue_width == 4


class TestExperimentResult:
    def test_runs_all_workloads(self, fig13):
        assert fig13.workloads == list(WORKLOAD_NAMES)
        for machine in fig13.machine_names:
            for workload in WORKLOAD_NAMES:
                assert fig13.stats[machine][workload].committed == N

    def test_ipc_table_shape(self, fig13):
        table = fig13.ipc_table()
        assert set(table) == set(fig13.machine_names)
        for row in table.values():
            assert set(row) == set(WORKLOAD_NAMES)
            assert all(0 < v <= 8 for v in row.values())

    def test_format_table(self, fig13):
        text = fig13.format_table()
        assert "baseline" in text
        assert "compress" in text
        bypass_text = fig13.format_table("bypass")
        assert "%" in bypass_text
        with pytest.raises(ValueError, match="unknown metric"):
            fig13.format_table("latency")

    def test_custom_run(self):
        result, _ = run_campaign(
            {"only": baseline_8way()}, workloads=("li",), max_instructions=1_000
        )
        assert result.machine_names == ["only"]
        assert result.workloads == ["li"]


class TestFig13Shape:
    """Figure 13: dependence-based close to the window baseline."""

    def test_little_slowdown(self, fig13):
        relative = fig13.relative_ipc("dependence-based", "baseline")
        # Paper: within 5% for five of seven, max degradation 8%.
        close = sum(1 for v in relative.values() if v > 0.94)
        assert close >= 4
        assert min(relative.values()) > 0.80

    def test_mean_relative(self, fig13):
        assert fig13.mean_relative_ipc("dependence-based", "baseline") > 0.90


class TestFig15Shape:
    """Figure 15: clustered dependence-based with slow bypasses."""

    def test_moderate_degradation(self, fig15):
        relative = fig15.relative_ipc(
            "2-cluster dependence-based", "window-based 8-way"
        )
        # Paper: nearly as effective; worst cases lose ~9-12%.
        assert min(relative.values()) > 0.75
        assert max(relative.values()) <= 1.02

    def test_clustering_costs_something(self, fig13, fig15):
        # The clustered machine cannot beat the unclustered FIFO
        # machine on average (its bypasses are strictly slower).
        unclustered = fig13.mean_relative_ipc("dependence-based", "baseline")
        clustered = fig15.mean_relative_ipc(
            "2-cluster dependence-based", "window-based 8-way"
        )
        assert clustered <= unclustered + 0.02


class TestFig17Shape:
    """Figure 17: steering policy comparison."""

    REFERENCE = "1-cluster.1window"

    def test_random_is_worst(self, fig17):
        machines = [m for m in fig17.machine_names if m != self.REFERENCE]
        means = {
            m: fig17.mean_relative_ipc(m, self.REFERENCE) for m in machines
        }
        assert min(means, key=means.get) == "2-cluster.windows.random_steer"
        # Paper: random degrades 17-26%.
        assert means["2-cluster.windows.random_steer"] < 0.88

    def test_exec_steer_is_nearly_ideal(self, fig17):
        mean = fig17.mean_relative_ipc(
            "2-cluster.1window.exec_steer", self.REFERENCE
        )
        assert mean > 0.92  # paper: max degradation 6%

    def test_dispatch_steered_competitive(self, fig17):
        for machine in (
            "2-cluster.FIFOs.dispatch_steer",
            "2-cluster.windows.dispatch_steer",
        ):
            assert fig17.mean_relative_ipc(machine, self.REFERENCE) > 0.82

    def test_bypass_frequency_anticorrelates_with_ipc(self, fig17):
        # Across the four clustered machines, higher inter-cluster
        # communication must mean lower mean relative IPC.
        machines = [m for m in fig17.machine_names if m != self.REFERENCE]
        pairs = [
            (
                sum(fig17.bypass_frequency(m).values()),
                fig17.mean_relative_ipc(m, self.REFERENCE),
            )
            for m in machines
        ]
        most_traffic = max(pairs)
        least_traffic = min(pairs)
        assert most_traffic[1] < least_traffic[1]

    def test_random_bypass_frequency_high(self, fig17):
        freqs = fig17.bypass_frequency("2-cluster.windows.random_steer")
        # Paper: up to ~35%; random steering sends half of all
        # dependences across clusters.
        assert max(freqs.values()) > 0.25

    def test_ideal_machine_has_no_intercluster_traffic(self, fig17):
        freqs = fig17.bypass_frequency(self.REFERENCE)
        assert all(v == 0.0 for v in freqs.values())


class TestSpeedup:
    def test_clock_adjusted_speedup(self, fig15):
        summary = clock_adjusted_speedup(
            fig15,
            dependence_machine="2-cluster dependence-based",
            window_machine="window-based 8-way",
            tech=TECH_018,
        )
        # Section 5.5: clock ratio ~1.25, overall speedups 10-22%,
        # mean ~16%.  Our IPC gaps differ slightly, so allow a band.
        assert summary.clock_ratio == pytest.approx(1.25, abs=0.02)
        assert summary.mean > 1.02
        assert summary.min > 0.95
        assert summary.max < 1.35
        assert summary.min <= summary.mean <= summary.max

    def test_speedup_table_format(self, fig15):
        summary = clock_adjusted_speedup(
            fig15,
            dependence_machine="2-cluster dependence-based",
            window_machine="window-based 8-way",
        )
        text = summary.format_table()
        assert "clock ratio" in text
        assert "mean" in text
