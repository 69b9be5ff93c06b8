"""Frontier points: a machine at a technology node, IPC x clock, and
the campaign sweep that builds them."""

import pytest

from repro.core.aggregate import arithmetic_mean, geometric_mean, mean_ipc
from repro.core.campaign import CampaignCell, ResultCache
from repro.core.frontier import (
    design_space_frontier,
    frontier_point,
    sweep_frontier,
)
from repro.core.machines import MACHINE_REGISTRY, machine_registry
from repro.technology import TECH_018, TECH_035, TECHNOLOGIES
from repro.uarch.stats import SimStats

WORKLOADS = ("compress", "li")


def fixed_runner(cell: CampaignCell) -> dict:
    """A campaign runner that returns IPC 2.0 without simulating."""
    stats = SimStats(machine=cell.machine, workload=cell.workload,
                     committed=200, cycles=100)
    return {"stats": stats.to_dict(), "seconds": 0.0, "metrics": None}


class TestDesignPoint:
    @pytest.fixture(scope="class")
    def point(self):
        return frontier_point(
            "baseline@0.18um", MACHINE_REGISTRY["baseline"](), TECH_018,
            {"w": SimStats(committed=200, cycles=100)},
        )

    def test_label_joins_config_and_tech(self):
        points, _ = design_space_frontier(
            techs=(TECH_018,),
            machines={"baseline": MACHINE_REGISTRY["baseline"]()},
            workloads=WORKLOADS, max_instructions=1_000, runner=fixed_runner,
        )
        assert [p.label for p in points] == ["baseline@0.18um"]
        assert points[0].tech == "0.18um"

    def test_clock_comes_from_the_critical_path_layer(self, point):
        assert point.clock_ps == pytest.approx(724.0, abs=0.05)
        assert point.frequency_ghz == pytest.approx(1000.0 / 724.0, abs=1e-4)
        assert point.bounded_by == "cluster0 wakeup+select (8-way/64)"
        assert point.window_size == 64

    def test_bips_is_ipc_times_frequency(self, point):
        assert point.mean_ipc == 2.0
        assert point.bips == pytest.approx(2.0 * point.frequency_ghz)

    def test_is_frozen_and_hashable(self, point):
        with pytest.raises(AttributeError):
            point.tech = TECH_035.name
        assert point in {point}

    def test_design_points_cross_product(self):
        machines = machine_registry()
        points, _ = design_space_frontier(
            machines=machines, workloads=WORKLOADS, max_instructions=1_000,
            runner=fixed_runner,
        )
        assert len(points) == 3 * len(MACHINE_REGISTRY)
        labels = [point.label for point in points]
        assert len(set(labels)) == len(labels)
        assert "baseline@0.18um" in labels


class TestSweep:
    def test_distinct_configs_simulated_once(self):
        config = MACHINE_REGISTRY["baseline"]()
        points = [(f"b@{tech.name}", config, tech) for tech in TECHNOLOGIES]
        swept, profile = sweep_frontier(
            points, WORKLOADS, 1_000, name="design-space"
        )
        # One config, three technologies: one simulation per workload.
        assert profile.cell_count == len(WORKLOADS)
        assert profile.registry.value("design_points") == 3
        assert profile.registry.value("design_distinct_configs") == 1
        assert len(swept) == 3
        ipcs = {item.mean_ipc for item in swept}
        assert len(ipcs) == 1  # IPC is technology-independent
        clocks = [item.clock_ps for item in swept]
        assert clocks == sorted(clocks, reverse=True)  # smaller is faster

    def test_warm_cache_sweep_runs_zero_simulations(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        machines = machine_registry()
        _, cold = design_space_frontier(
            machines=machines,
            workloads=WORKLOADS,
            max_instructions=1_000,
            cache=cache,
        )
        assert cold.simulated_cells > 0

        def forbidden(cell: CampaignCell) -> dict:
            raise AssertionError(f"warm sweep simulated {cell.key()}")

        warm_points, warm = design_space_frontier(
            machines=machines,
            workloads=WORKLOADS,
            max_instructions=1_000,
            cache=cache,
            runner=forbidden,
        )
        assert warm.simulated_cells == 0
        assert warm.cache_hits == cold.cell_count
        assert len(warm_points) == 3 * len(machines)

    def test_frontier_points_byte_identical_cold_vs_warm(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(workloads=WORKLOADS, max_instructions=1_000, cache=cache)
        cold_points, _ = design_space_frontier(**kwargs)
        warm_points, _ = design_space_frontier(**kwargs)
        assert cold_points == warm_points


class TestAggregate:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            arithmetic_mean([])

    def test_mean_ipc_over_workloads(self):
        stats = {
            "a": SimStats(committed=200, cycles=100),  # IPC 2.0
            "b": SimStats(committed=800, cycles=100),  # IPC 8.0
        }
        assert mean_ipc(stats) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            mean_ipc({})


class TestStatsClockField:
    def test_merge_requires_agreement(self):
        a = SimStats(committed=10, cycles=10)
        b = SimStats(committed=10, cycles=10)
        a.clock_ps = 724.0
        b.clock_ps = 578.0
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_propagates_the_nonzero_clock(self):
        a = SimStats(committed=10, cycles=10)
        b = SimStats(committed=10, cycles=10)
        b.clock_ps = 724.0
        merged = a.merge(b)
        assert merged.clock_ps == pytest.approx(724.0)
        # The counter fields still sum -- clock_ps must not.
        assert merged.committed == 20
