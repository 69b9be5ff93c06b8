"""Tests for machine factories, the paper's experiments, and speedups.

The shape checks run on the EXPERIMENTS.md section builders' data, at
the budget the document records; ``tests/test_experiments_document.py``
checks the same builders' printed lines verbatim.
"""

import pytest

from repro.core import experiments
from repro.core.campaign import run_campaign
from repro.core.experiments import DEFAULT_INSTRUCTIONS, SECTION55_MACHINES
from repro.core.machines import (
    MACHINE_REGISTRY,
    baseline_8way,
    clustered_dependence_8way,
    clustered_exec_steer_8way,
    clustered_random_8way,
    clustered_windows_8way,
    dependence_based_8way,
)
from repro.core.speedup import clock_adjusted_speedup
from repro.delay.pipelining import stages_required
from repro.technology import TECH_018, TECH_080, TECHNOLOGIES
from repro.uarch.config import SteeringPolicy
from repro.workloads import WORKLOAD_NAMES

N = DEFAULT_INSTRUCTIONS


@pytest.fixture(scope="module")
def fig13(experiment_section):
    return experiment_section(experiments.figure13).data["result"]


@pytest.fixture(scope="module")
def fig15(experiment_section):
    return experiment_section(experiments.figure15).data["result"]


@pytest.fixture(scope="module")
def fig17(experiment_section):
    return experiment_section(experiments.figure17).data["result"]


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
        machines = experiments.figure_configs("fig17")
        assert len(machines) == 5
        assert "baseline" in machines
        assert "random" in machines

    def test_row_labels_name_registry_keys(self):
        # A renamed registry key must not leave a stale printed label.
        for (section, machine), label in experiments.ROW_LABELS.items():
            assert machine in MACHINE_REGISTRY, (
                f"{section} row label {label!r} names {machine!r}, which "
                f"is not a registry key")

    def test_grids_are_keyed_by_registry_key(self):
        keys = {*SECTION55_MACHINES, *experiments.STEERING_MACHINES}
        for grid in experiments.FIGURE_MACHINES.values():
            keys.update(grid)
        assert keys <= set(MACHINE_REGISTRY)

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
        relative = fig13.relative_ipc("dependence", "baseline")
        # Paper: within 5% for five of seven, max degradation 8%.
        close = sum(1 for v in relative.values() if v > 0.94)
        assert close >= 4
        assert min(relative.values()) > 0.80

    def test_mean_relative(self, fig13):
        assert fig13.mean_relative_ipc("dependence", "baseline") > 0.90


class TestFig15Shape:
    """Figure 15: clustered dependence-based with slow bypasses."""

    def test_moderate_degradation(self, fig15):
        relative = fig15.relative_ipc(*SECTION55_MACHINES)
        # Paper: nearly as effective; worst cases lose ~9-12%.
        assert min(relative.values()) > 0.75
        assert max(relative.values()) <= 1.02

    def test_mean_relative(self, fig15):
        assert fig15.mean_relative_ipc(*SECTION55_MACHINES) > 0.82

    def test_clustering_costs_something(self, fig13, fig15):
        # The clustered machine cannot beat the unclustered FIFO
        # machine on average (its bypasses are strictly slower).
        unclustered = fig13.mean_relative_ipc("dependence", "baseline")
        clustered = fig15.mean_relative_ipc(*SECTION55_MACHINES)
        assert clustered <= unclustered + 0.02


class TestFig17Shape:
    """Figure 17: steering policy comparison."""

    REFERENCE = "baseline"

    def test_random_is_worst(self, fig17):
        machines = [m for m in fig17.machine_names if m != self.REFERENCE]
        means = {
            m: fig17.mean_relative_ipc(m, self.REFERENCE) for m in machines
        }
        assert min(means, key=means.get) == "random"
        # Paper: random degrades 17-26%.
        assert means["random"] < 0.88

    def test_exec_steer_is_nearly_ideal(self, fig17):
        mean = fig17.mean_relative_ipc(
            "exec_steer", self.REFERENCE
        )
        assert mean > 0.92  # paper: max degradation 6%

    def test_dispatch_steered_competitive(self, fig17):
        for machine in ("clustered", "clustered_windows"):
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

    def test_random_steering_has_the_most_traffic(self, fig17):
        traffic = {m: sum(fig17.bypass_frequency(m).values())
                   for m in fig17.machine_names}
        assert max(traffic, key=traffic.get) == "random"

    def test_random_bypass_frequency_high(self, fig17):
        freqs = fig17.bypass_frequency("random")
        # Paper: up to ~35%; random steering sends half of all
        # dependences across clusters.
        assert max(freqs.values()) > 0.25

    def test_ideal_machine_has_no_intercluster_traffic(self, fig17):
        freqs = fig17.bypass_frequency(self.REFERENCE)
        assert all(v == 0.0 for v in freqs.values())


class TestSpeedup:
    def test_clock_adjusted_speedup(self, fig15):
        summary = clock_adjusted_speedup(fig15, *SECTION55_MACHINES, TECH_018)
        # Section 5.5: clock ratio ~1.25, overall speedups 10-22%,
        # mean ~16%.  Our IPC gaps differ slightly, so allow a band.
        assert summary.clock_ratio == pytest.approx(1.25, abs=0.02)
        assert summary.mean > 1.02
        assert summary.min > 0.95
        assert summary.max < 1.35
        assert summary.min <= summary.mean <= summary.max

    def test_speedup_table_format(self, fig15):
        summary = clock_adjusted_speedup(fig15, *SECTION55_MACHINES)
        text = summary.format_table()
        assert "clock ratio" in text
        assert "mean" in text


class TestFigure10Shape:
    """Figure 10: wakeup+select cannot be pipelined for free."""

    @pytest.fixture(scope="class")
    def figure10(self, experiment_section):
        return experiment_section(experiments.figure10).data

    def test_serial_chain_runs_at_one_over_stages(self, figure10):
        # A fully serial chain exposes the bubble exactly.
        for stages, ipc in figure10["serial"].items():
            assert abs(ipc - 1.0 / stages) < 0.15

    def test_loss_rises_with_stages(self, figure10):
        for workload in WORKLOAD_NAMES:
            series = [figure10["ipc"][s][workload]
                      for s in experiments.FIGURE10_STAGES]
            assert series == sorted(series, reverse=True), workload


class TestAblationShapes:
    @pytest.fixture(scope="class")
    def ablations(self, experiment_section):
        return experiment_section(experiments.ablations).data

    def test_fifo_geometry_knee(self, ablations):
        # 8x8 is at (or near) the knee: 4x8 hurts, 16x8 helps little.
        ipc = ablations["fifo_geometry"]
        assert ipc["8×8"] >= ipc["4×8"] - 0.02
        assert ipc["16×8"] <= ipc["8×8"] * 1.10

    def test_bypass_latency_is_monotone(self, ablations):
        ipcs = list(ablations["bypass_latency"].values())
        assert ipcs == sorted(ipcs, reverse=True)

    def test_selection_policy_within_six_percent(self, ablations):
        # Butler & Patt: performance largely independent of the policy.
        relative = ablations["selection"].relative_ipc("position", "oldest")
        for workload, ratio in relative.items():
            assert abs(ratio - 1) < 0.06, workload

    def test_blind_steering_trails_dependence_aware(self, ablations):
        aware = ablations["steering"]["clustered_windows"]
        for machine in ("random", "modulo", "least_loaded"):
            assert ablations["steering"][machine] < aware - 0.05, machine
            assert ablations["steering_traffic"][machine] > 0.30, machine

    def test_faster_clock_needs_deeper_pipelines(self, ablations):
        for conventional, dependence in ablations["plans"].values():
            assert dependence.clock_ps < conventional.clock_ps
            assert dependence.rename_stages >= conventional.rename_stages
            assert dependence.regfile_stages >= conventional.regfile_stages
            assert dependence.cache_stages >= conventional.cache_stages
            # The paper's caveat is real: both need pipelining.
            assert dependence.regfile_stages >= 2
            assert dependence.cache_stages >= 2

    def test_stages_required_arithmetic(self):
        assert [stages_required(d, 500.0)
                for d in (100.0, 450.0, 451.0, 1000.0)] == [1, 1, 2, 3]


class TestDelaySectionShapes:
    def test_rename_bitline_grows_fastest(self, experiment_section):
        components = experiment_section(experiments.figure3).data["components"]
        for by_width in components.values():
            totals = [sum(parts.values()) for parts in by_width.values()]
            assert totals == sorted(totals)
            first, last = by_width[2], by_width[8]
            growth = {c: last[c] - first[c] for c in first}
            assert growth["bitline"] == max(growth.values())

    def test_wakeup_shrinks_with_feature_size(self):
        from repro.delay import WakeupDelayModel

        totals = [WakeupDelayModel(t).total(8, 64) for t in TECHNOLOGIES]
        assert totals == sorted(totals, reverse=True)

    def test_selection_shrinks_with_feature_size(self, experiment_section):
        total = experiment_section(experiments.figure8).data["total"]
        assert total[TECH_018.name][64] < 0.3 * total[TECH_080.name][64]
        for by_window in total.values():
            delays = list(by_window.values())
            assert delays == sorted(delays)

    def test_reservation_table_under_half_the_window_logic(
            self, experiment_section):
        from repro.delay import window_logic_delay

        delay = experiment_section(experiments.table4).data["delay"]
        assert delay[8] < 0.5 * window_logic_delay(TECH_018, 4, 32)

    def test_supporting_structures(self, experiment_section):
        data = experiment_section(experiments.supporting_structures).data
        shared, per_cluster = data["regfile"]
        assert per_cluster < shared  # Section 5.4: per-cluster copies
        cam, ram = data["rename"][4, 80]
        assert abs(cam - ram) / ram < 0.01  # comparable at 4-way/80
        cam, ram = data["rename"][8, 256]
        assert cam > 1.5 * ram  # "the CAM scheme is less scalable"
        delays = list(data["cache"].values())
        assert delays == sorted(delays)
