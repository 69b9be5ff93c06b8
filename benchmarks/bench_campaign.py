"""Campaign engine: parallel fan-out and result-cache throughput.

Not a paper figure -- this times the *reproduction's* sweep machinery
(`repro.core.campaign`): a cold serial run of the Figure 13 grid, the
same grid fanned out over two workers, and a warm-cache rerun, which
must perform zero simulations.
"""

from conftest import bench_instructions

from repro.core.campaign import ResultCache, run_campaign
from repro.core.experiments import figure_configs

#: A short grid keeps the timing comparison about the engine, not the
#: simulator; REPRO_BENCH_INSTRUCTIONS still scales it.
GRID_INSTRUCTIONS = max(1_000, bench_instructions() // 10)


def _campaign(jobs, cache=None):
    return run_campaign(
        figure_configs("fig13"),
        max_instructions=GRID_INSTRUCTIONS,
        name="fig13",
        jobs=jobs,
        cache=cache,
    )


def test_campaign_serial_cold(benchmark, bench_report):
    result, profile = benchmark.pedantic(
        lambda: _campaign(jobs=1), rounds=1, iterations=1
    )
    assert profile.simulated_cells == profile.cell_count
    bench_report(
        "Campaign engine: cold serial fig13 grid",
        f"{profile.cell_count} cells, "
        f"{profile.simulated_instructions:,} instructions, "
        f"{profile.instructions_per_second:,.0f} inst/s",
    )


def test_campaign_parallel_cold(benchmark):
    result, profile = benchmark.pedantic(
        lambda: _campaign(jobs=2), rounds=1, iterations=1
    )
    assert profile.simulated_cells == profile.cell_count
    assert profile.jobs == 2


def test_campaign_warm_cache(benchmark, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    _campaign(jobs=1, cache=cache)  # populate
    result, profile = benchmark.pedantic(
        lambda: _campaign(jobs=1, cache=cache), rounds=1, iterations=1
    )
    assert profile.simulated_cells == 0
    assert profile.cache_hits == profile.cell_count
