"""The design-space frontier sweep, cold and warm.

Times the full shapes x technologies frontier
(``design_space_frontier`` with its defaults: every registered shape
on the seven paper kernels, as ``repro frontier`` runs it) cold and
warm, asserts the warm pass performs zero simulations, and folds both
wall times into
``BENCH_frontier.json`` (repo root) next to the checked-in
``recorded`` numbers -- the ``BENCH_simulator.json`` pattern applied
to the campaign cache.  The frontier's paper claims are checked in
``tests/test_frontier.py``.
"""

import os
import time

from conftest import assert_clears_floors, bench_instructions

from repro.core.campaign import ResultCache
from repro.core.frontier import design_space_frontier, format_frontier

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


def test_design_space_sweep_cold_vs_warm(benchmark, bench_report, tmp_path):
    """Time the shapes x technologies sweep cold, then re-run it warm."""
    cache = ResultCache(tmp_path / "cache")
    budget = bench_instructions()

    def cold_sweep():
        return design_space_frontier(max_instructions=budget, cache=cache)

    points, cold_profile = benchmark.pedantic(
        cold_sweep, rounds=1, iterations=1
    )
    cold_seconds = benchmark.stats.stats.mean
    assert cold_profile.simulated_cells == cold_profile.cell_count

    started = time.perf_counter()
    warm_points, warm_profile = design_space_frontier(
        max_instructions=budget, cache=cache
    )
    warm_seconds = time.perf_counter() - started

    # The warm sweep is served entirely from the campaign cache and
    # must reproduce the cold run's points exactly.
    assert warm_profile.simulated_cells == 0
    assert warm_profile.cache_hits == cold_profile.cell_count
    assert warm_points == points

    bench_report(
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
