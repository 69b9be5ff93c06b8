"""The complexity-effectiveness frontier (the paper's thesis, on one
axis pair).

Growing a conventional issue window raises IPC but slows the clock
(wakeup+select delay), so instructions-per-second peaks at a moderate
window.  The dependence-based machine breaks the trade-off: near-big-
window IPC at small-window clock, so it sits above the conventional
curve -- which is what "complexity-effective" means.

The design-space sweep benchmark additionally times the full
shapes x technologies frontier (``design_space_frontier``) cold and
warm, asserts the warm pass performs zero simulations, and folds both
wall times into ``BENCH_frontier.json`` (repo root) next to the
checked-in ``recorded`` numbers -- the ``BENCH_simulator.json``
pattern applied to the campaign cache.
"""

import os
import time

from conftest import assert_clears_floors, bench_instructions

from repro.core.campaign import ResultCache
from repro.core.frontier import (
    conventional_frontier,
    dependence_based_point,
    design_space_frontier,
    format_frontier,
    issue_width_frontier,
)
from repro.technology import TECH_018

WORKLOADS = ("compress", "gcc", "li", "m88ksim", "vortex")

#: The checked-in frontier sweep record (repo root).
BENCH_FRONTIER_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_frontier.json"
)


def _record_sweep(measured: dict) -> None:
    """Fold this run's measurements into ``BENCH_frontier.json``.

    Delegated to :func:`repro.obs.ledger.record_bench` -- the single,
    schema-stamped, atomic path every BENCH_*.json write goes through.
    """
    from repro.obs.ledger import record_bench

    record_bench(BENCH_FRONTIER_PATH, "repro-frontier-bench", measured)


def build_frontier():
    instructions = bench_instructions()
    points = conventional_frontier(
        tech=TECH_018, workloads=WORKLOADS, max_instructions=instructions
    )
    points.append(
        dependence_based_point(
            tech=TECH_018, workloads=WORKLOADS, max_instructions=instructions
        )
    )
    return points


def test_complexity_effectiveness_frontier(benchmark, paper_report):
    points = benchmark.pedantic(build_frontier, rounds=1, iterations=1)
    paper_report(
        "Complexity-effectiveness frontier (IPC x clock, 0.18um)",
        format_frontier(points),
    )
    conventional = points[:-1]
    dependence = points[-1]
    # IPC grows monotonically with window size...
    ipcs = [p.mean_ipc for p in conventional]
    assert all(b >= a - 0.02 for a, b in zip(ipcs, ipcs[1:]))
    # ...but clock slows, so BIPS peaks strictly inside the sweep.
    bips = [p.bips for p in conventional]
    assert max(bips) not in (bips[0], bips[-1])
    # The dependence-based machine is complexity-effective: it beats
    # every conventional window at instructions per second.
    assert dependence.bips > max(bips)


def test_issue_width_frontier(benchmark, paper_report):
    points = benchmark.pedantic(
        issue_width_frontier,
        kwargs={
            "tech": TECH_018,
            "workloads": WORKLOADS,
            "max_instructions": bench_instructions(),
        },
        rounds=1,
        iterations=1,
    )
    paper_report(
        "Issue-width frontier (windows scaled 8 entries/slot, 0.18um)",
        format_frontier(points),
    )
    # IPC grows with width but sub-linearly (diminishing parallelism)...
    ipcs = [p.mean_ipc for p in points]
    assert ipcs == sorted(ipcs)
    assert ipcs[-1] < 2.5 * ipcs[0]
    # ...while the window-logic clock keeps slowing.
    clocks = [p.clock_ps for p in points]
    assert clocks == sorted(clocks)


def test_design_space_sweep_cold_vs_warm(benchmark, paper_report, tmp_path):
    """Time the shapes x technologies sweep cold, then re-run it warm."""
    cache = ResultCache(tmp_path / "cache")
    budget = bench_instructions()

    def cold_sweep():
        return design_space_frontier(
            workloads=WORKLOADS, max_instructions=budget, cache=cache
        )

    points, cold_profile = benchmark.pedantic(
        cold_sweep, rounds=1, iterations=1
    )
    cold_seconds = benchmark.stats.stats.mean
    assert cold_profile.simulated_cells == cold_profile.cell_count

    started = time.perf_counter()
    warm_points, warm_profile = design_space_frontier(
        workloads=WORKLOADS, max_instructions=budget, cache=cache
    )
    warm_seconds = time.perf_counter() - started

    # The warm sweep is served entirely from the campaign cache and
    # must reproduce the cold run's points exactly.
    assert warm_profile.simulated_cells == 0
    assert warm_profile.cache_hits == cold_profile.cell_count
    assert warm_points == points

    paper_report(
        "Design-space frontier sweep (shapes x technologies)",
        format_frontier(points)
        + f"\n  cold: {cold_seconds:.2f}s "
        f"({cold_profile.cell_count} cells simulated); "
        f"warm: {warm_seconds:.2f}s (all cache, "
        f"{cold_seconds / warm_seconds:.0f}x)",
    )
    _record_sweep(
        {
            "instructions_per_cell": budget,
            "cells": cold_profile.cell_count,
            "frontier_points": len(points),
            "cold_seconds": round(cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "warm_speedup": round(cold_seconds / warm_seconds, 1),
        }
    )
    # recorded.floors holds the warm/cold speedup at 2x: cache reads are
    # orders of magnitude cheaper than simulating, so 2x catches a broken
    # cache path without inviting CI flakiness.
    assert_clears_floors("frontier",
                         {"warm_speedup": cold_seconds / warm_seconds})
