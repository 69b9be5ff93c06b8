"""Tests for the complexity-effectiveness frontier."""

import pytest

from repro.core import experiments
from repro.core.frontier import (
    FrontierPoint,
    conventional_frontier,
    dependence_based_point,
    format_frontier,
    issue_width_frontier,
)
from repro.core.machines import baseline_8way, dependence_based_8way
from repro.delay.critical_path import clock_ps
from repro.technology import TECH_018, TECHNOLOGIES


class TestClockModels:
    def test_conventional_clock_monotone_in_window(self):
        clocks = [clock_ps(baseline_8way(window_size=w), TECH_018)
                  for w in (8, 16, 32, 64, 128)]
        assert clocks == sorted(clocks)

    def test_conventional_clock_matches_table2(self):
        # At 8-way/64 the window logic (724 ps) dominates rename.
        clock = clock_ps(baseline_8way(window_size=64), TECH_018)
        assert clock == pytest.approx(724.0, abs=1.0)

    def test_rename_floor(self):
        # For tiny windows the clock is bounded by rename, not window
        # logic going to zero.
        clock = clock_ps(baseline_8way(window_size=2), TECH_018)
        assert clock >= 427.0  # 8-way rename delay

    def test_dependence_clock_beats_conventional(self):
        for tech in TECHNOLOGIES:
            assert clock_ps(dependence_based_8way(), tech) < clock_ps(
                baseline_8way(window_size=64), tech
            )

    def test_dependence_clock_floor_is_rename(self):
        # Section 5.3: once window logic shrinks, rename is critical.
        clock = clock_ps(dependence_based_8way(), TECH_018)
        assert clock >= 427.0


class TestFrontierPoint:
    def test_bips_math(self):
        point = FrontierPoint(label="x", window_size=64, mean_ipc=2.0, clock_ps=500.0)
        assert point.frequency_ghz == pytest.approx(2.0)
        assert point.bips == pytest.approx(4.0)

    def test_format(self):
        point = FrontierPoint(label="w64", window_size=64, mean_ipc=2.0, clock_ps=500.0)
        text = format_frontier([point])
        assert "w64" in text
        assert "BIPS" in text


class TestFrontierSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        workloads = ("compress", "li")
        points = conventional_frontier(
            window_sizes=(8, 32, 128),
            workloads=workloads,
            max_instructions=2_000,
        )
        dep = dependence_based_point(workloads=workloads, max_instructions=2_000)
        return points, dep

    def test_ipc_grows_with_window(self, sweep):
        points, _dep = sweep
        assert points[-1].mean_ipc >= points[0].mean_ipc - 0.02

    def test_clock_slows_with_window(self, sweep):
        points, _dep = sweep
        clocks = [p.clock_ps for p in points]
        assert clocks == sorted(clocks)

    def test_dependence_point_faster_clock_than_big_windows(self, sweep):
        points, dep = sweep
        assert dep.clock_ps < points[-1].clock_ps
        assert dep.mean_ipc > 0

    def test_issue_width_frontier(self):
        points = issue_width_frontier(
            issue_widths=(2, 4), workloads=("gcc",), max_instructions=2_000
        )
        assert [p.label for p in points] == ["2-way/16", "4-way/32"]
        # Wider issue: more IPC, slower window logic.
        assert points[1].mean_ipc >= points[0].mean_ipc - 0.02
        assert points[1].clock_ps > points[0].clock_ps
        # The 4-way clock matches Table 2's 4-way/32 window logic.
        assert points[1].clock_ps == pytest.approx(578.0, abs=1.0)


class TestPaperFrontier:
    """EXPERIMENTS.md's frontier tables, at the budget they record."""

    @pytest.fixture(scope="class")
    def frontier(self, experiment_section):
        return experiment_section(experiments.complexity_frontier).data

    def test_ipc_grows_with_window(self, frontier):
        ipcs = [p.mean_ipc for p in frontier["conventional"]]
        assert all(b >= a - 0.02 for a, b in zip(ipcs, ipcs[1:]))

    def test_bips_peaks_inside_the_sweep(self, frontier):
        bips = [p.bips for p in frontier["conventional"]]
        assert max(bips) not in (bips[0], bips[-1])

    def test_dependence_beats_the_whole_conventional_curve(self, frontier):
        assert frontier["dependence"].bips > max(
            p.bips for p in frontier["conventional"])


def test_issue_width_ipc_is_sublinear_while_clocks_grow():
    points = issue_width_frontier(
        issue_widths=(2, 4, 8), workloads=("compress", "li"),
        max_instructions=2_000)
    ipcs = [p.mean_ipc for p in points]
    assert ipcs == sorted(ipcs)
    assert ipcs[-1] < 2.5 * ipcs[0]
    clocks = [p.clock_ps for p in points]
    assert clocks == sorted(clocks)
