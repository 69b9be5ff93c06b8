"""Tests for the parallel campaign engine and its result cache.

The load-bearing guarantee: ``jobs=1``, ``jobs=4``, and a warm-cache
run all serialise *byte-identically* to the seed's serial loop, so
parallelism and caching are pure speed, never a result change.
"""

import json
import multiprocessing
import shutil
import time
from pathlib import Path

import pytest

from repro.core import results_io
from repro.core.campaign import (
    CampaignCell,
    ResultCache,
    cache_key,
    config_fingerprint,
    run_campaign,
    simulate_cell,
)
from repro.core.experiments import ExperimentResult, figure_configs
from repro.core.machines import baseline_8way
from repro.core.results_io import result_to_dict
from repro.uarch.pipeline import simulate
from repro.workloads import WORKLOAD_NAMES, get_trace

#: Short runs keep the suite fast; equality assertions are exact.
N = 1_000


def serialise(result: ExperimentResult) -> str:
    """Canonical bytes of a result (what ``save_result`` writes)."""
    return json.dumps(result_to_dict(result), sort_keys=True)


@pytest.fixture
def edited_model(tmp_path, monkeypatch):
    """Key a cell against a copy of the model source with one file edited.

    Returns ``key_after_edit(relative)``: it copies every package of
    ``MODEL_PACKAGES``, checks the untouched copy keys like the real
    tree, appends a comment to ``repro/<relative>``, points
    :func:`model_fingerprint` at the copy and returns the baseline/li
    cache key.  The memo is cleared on both sides, so the rest of the
    suite sees the real source's fingerprint.
    """
    from repro.core import campaign as campaign_mod

    def key_after_edit(relative: str) -> str:
        original = cache_key(baseline_8way(), "li", N)
        root = tmp_path / "repro"
        for package in campaign_mod.MODEL_PACKAGES:
            part = package.split(".", 1)[1]
            shutil.copytree(
                campaign_mod._REPRO_ROOT / part, root / part,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        monkeypatch.setattr(campaign_mod, "_REPRO_ROOT", root)
        campaign_mod.model_fingerprint.cache_clear()
        assert cache_key(baseline_8way(), "li", N) == original
        edited = root / relative
        edited.write_text(
            edited.read_text(encoding="utf-8") + "\n# edited\n",
            encoding="utf-8",
        )
        campaign_mod.model_fingerprint.cache_clear()
        return cache_key(baseline_8way(), "li", N)

    yield key_after_edit
    monkeypatch.undo()
    campaign_mod.model_fingerprint.cache_clear()


@pytest.fixture(scope="module")
def fig13_grid():
    return figure_configs("fig13")


@pytest.fixture(scope="module")
def seed_serial_json(fig13_grid):
    """The seed's serial path, replicated literally: one process, one
    nested loop, no engine."""
    result = ExperimentResult(
        name="fig13",
        machine_names=list(fig13_grid),
        workloads=list(WORKLOAD_NAMES),
    )
    for machine, config in fig13_grid.items():
        result.stats[machine] = {
            workload: simulate(config, get_trace(workload, N))
            for workload in WORKLOAD_NAMES
        }
    return serialise(result)


# ----------------------------------------------------------------------
# injectable cell runners (module-level: must survive pickling)
# ----------------------------------------------------------------------


def _fails_in_worker(cell: CampaignCell) -> dict:
    """Raise in pool workers, succeed in the parent process."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("injected worker failure")
    return simulate_cell(cell)


def _hangs_in_worker(cell: CampaignCell) -> dict:
    """Outlive any reasonable timeout in workers; instant in parent."""
    if multiprocessing.parent_process() is not None:
        time.sleep(30.0)
    return simulate_cell(cell)


def _always_fails(cell: CampaignCell) -> dict:
    raise RuntimeError("injected permanent failure")


def _forbidden(cell: CampaignCell) -> dict:
    raise AssertionError(f"cell {cell.label} simulated despite warm cache")


class TestDeterminism:
    """Satellite: engine output equals the seed serial path exactly."""

    def test_jobs1_equals_seed(self, seed_serial_json):
        result, _ = run_campaign(figure_configs("fig13"), max_instructions=N,
                                 name="fig13")
        assert serialise(result) == seed_serial_json

    def test_jobs4_equals_seed(self, fig13_grid, seed_serial_json):
        result, profile = run_campaign(
            fig13_grid, max_instructions=N, name="fig13", jobs=4
        )
        assert profile.jobs == 4
        assert serialise(result) == seed_serial_json

    def test_warm_cache_equals_seed_with_zero_simulations(
        self, fig13_grid, seed_serial_json, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        cold, cold_profile = run_campaign(
            fig13_grid, max_instructions=N, name="fig13", jobs=4, cache=cache
        )
        assert cold_profile.cache_hits == 0
        assert serialise(cold) == seed_serial_json
        # Warm rerun: every cell from cache, zero simulations -- the
        # forbidden runner proves nothing executes.
        warm, warm_profile = run_campaign(
            fig13_grid, max_instructions=N, name="fig13", jobs=4,
            cache=cache, runner=_forbidden,
        )
        assert warm_profile.cache_hits == warm_profile.cell_count
        assert warm_profile.cache_hits == len(fig13_grid) * len(WORKLOAD_NAMES)
        assert warm_profile.simulated_cells == 0
        assert serialise(warm) == seed_serial_json

    def test_stats_dicts_equal_not_just_close(self, fig13_grid):
        result, _ = run_campaign(
            fig13_grid, max_instructions=N, name="fig13", jobs=2
        )
        for machine, config in fig13_grid.items():
            for workload in WORKLOAD_NAMES:
                direct = simulate(config, get_trace(workload, N))
                assert (
                    result.stats[machine][workload].to_dict()
                    == direct.to_dict()
                )

    def test_merge_order_is_presentation_order(self, fig13_grid):
        result, _ = run_campaign(
            fig13_grid, max_instructions=N, name="fig13", jobs=4
        )
        assert list(result.stats) == list(fig13_grid)
        for machine in result.stats:
            assert list(result.stats[machine]) == list(WORKLOAD_NAMES)


class TestCacheKey:
    """Satellite: the key covers everything that changes the result."""

    def test_key_changes_with_machine_config(self):
        assert cache_key(baseline_8way(), "li", N) != cache_key(
            baseline_8way(issue_width=4), "li", N
        )

    def test_key_changes_with_workload(self):
        assert cache_key(baseline_8way(), "li", N) != cache_key(
            baseline_8way(), "gcc", N
        )

    def test_key_changes_with_instruction_count(self):
        assert cache_key(baseline_8way(), "li", N) != cache_key(
            baseline_8way(), "li", N + 1
        )

    def test_key_changes_with_format_version(self, monkeypatch):
        current = cache_key(baseline_8way(), "li", N)
        monkeypatch.setattr(results_io, "FORMAT_VERSION",
                            results_io.FORMAT_VERSION + 1)
        assert cache_key(baseline_8way(), "li", N) != current

    def test_key_is_stable(self):
        assert cache_key(baseline_8way(), "li", N) == cache_key(
            baseline_8way(), "li", N
        )

    def test_fingerprint_is_json_primitives(self):
        fingerprint = config_fingerprint(baseline_8way())
        json.dumps(fingerprint)  # must not need custom encoders
        assert fingerprint["steering"] == "none"
        assert fingerprint["clusters"][0]["window_size"] == 64

    def test_current_format_version_is_3(self, monkeypatch):
        # The clock field bumped the stats format; the key embeds it,
        # so pre-bump cache entries can never be served.
        assert results_io.FORMAT_VERSION == 3
        current = cache_key(baseline_8way(), "li", N)
        monkeypatch.setattr(results_io, "FORMAT_VERSION", 2)
        assert cache_key(baseline_8way(), "li", N) != current

    def test_key_changes_with_scheduler_strategy(self):
        # Identical geometry, different issue logic: the strategy
        # identity keeps the cells apart even if the fingerprint ever
        # stopped covering the strategy fields.
        from repro.core.machines import load_tracking_8way

        assert cache_key(baseline_8way(), "li", N) != cache_key(
            load_tracking_8way(), "li", N
        )

    def test_key_changes_with_regfile_strategy(self):
        from repro.core.machines import ports_limited_8way

        # read_ports=16 never binds, so the *behaviour* matches the
        # unlimited baseline -- but the model differs, and a future
        # version bump of either must not serve stale entries.
        assert cache_key(baseline_8way(), "li", N) != cache_key(
            ports_limited_8way(read_ports=16), "li", N
        )

    def test_key_changes_with_strategy_version(self, edited_model):
        # Strategy behaviour lives in the model source: editing the
        # scheduler module must invalidate every cached cell.
        before = cache_key(baseline_8way(), "li", N)
        assert edited_model("uarch/scheduler.py") != before

    def test_key_changes_with_compile_version(self, edited_model):
        # Workers simulate with mode="compiled"; a codegen edit must
        # invalidate every cached cell, exactly like a pre-analysis
        # edit.
        before = cache_key(baseline_8way(), "li", N)
        assert edited_model("uarch/compile.py") != before

    def test_key_changes_when_kernel_source_is_edited(self, monkeypatch):
        # THE staleness fix this PR exists for: the key hashes the
        # workload's *content* (the kernel's assembly source), not just
        # its name, so editing li.s misses every cached cell instead of
        # silently serving the old kernel's stats.
        from repro.workloads import li

        original = li.source()
        before = cache_key(baseline_8way(), "li", N)
        monkeypatch.setattr(li, "source", lambda: original + "\n# edited\n")
        assert cache_key(baseline_8way(), "li", N) != before
        # Other workloads' cells are untouched by the edit.
        assert cache_key(baseline_8way(), "gcc", N) == cache_key(
            baseline_8way(), "gcc", N
        )

    def test_key_changes_with_workload_version(self, edited_model):
        # Trace generation is fingerprinted too: editing the workload
        # registry misses every cached cell.
        before = cache_key(baseline_8way(), "li", N)
        assert edited_model("workloads/registry.py") != before

    def test_grid_fingerprint_changes_when_kernel_source_is_edited(
        self, monkeypatch
    ):
        from repro.core.campaign import grid_fingerprint
        from repro.workloads import li

        grid = {"baseline": baseline_8way()}
        original = li.source()
        before = grid_fingerprint(grid, WORKLOAD_NAMES, N)
        monkeypatch.setattr(li, "source", lambda: original + "\n# edited\n")
        assert grid_fingerprint(grid, WORKLOAD_NAMES, N) != before

    def test_unregistered_workload_still_gets_a_key(self):
        # Runner-injected test workloads are not in the registry; the
        # key falls back to a name-only identity instead of raising.
        assert cache_key(baseline_8way(), "not-a-workload", N) != cache_key(
            baseline_8way(), "another-fake", N
        )

    def test_fifo_geometry_is_single_valued_in_the_fingerprint(self):
        # ClusterConfig normalises window_size to the FIFO capacity,
        # so two spellings of the same geometry share a cache cell.
        from repro.core.machines import dependence_based_8way

        a = config_fingerprint(dependence_based_8way(fifo_count=4))
        assert a["clusters"][0]["window_size"] == 32
        assert cache_key(
            dependence_based_8way(fifo_count=4), "li", N
        ) == cache_key(dependence_based_8way(fifo_count=4), "li", N)


class TestResultCache:
    """Satellite: corrupted entries are discarded, never trusted."""

    @pytest.fixture
    def entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        stats = simulate(baseline_8way(), get_trace("li", 500))
        key = cache_key(baseline_8way(), "li", 500)
        cache.store(key, stats)
        return cache, key, stats

    def test_roundtrip(self, entry):
        cache, key, stats = entry
        assert cache.load(key).to_dict() == stats.to_dict()

    def test_missing_entry_is_none(self, tmp_path):
        assert ResultCache(tmp_path).load("0" * 64) is None

    def test_corrupted_entry_discarded(self, entry):
        cache, key, _ = entry
        cache.path(key).write_text("{not json at all", encoding="utf-8")
        assert cache.load(key) is None
        assert not cache.path(key).exists()  # unlinked, will recompute

    def test_truncated_entry_discarded(self, entry):
        cache, key, _ = entry
        text = cache.path(key).read_text(encoding="utf-8")
        cache.path(key).write_text(text[: len(text) // 2], encoding="utf-8")
        assert cache.load(key) is None
        assert not cache.path(key).exists()

    def test_foreign_payload_discarded(self, entry):
        cache, key, _ = entry
        cache.path(key).write_text(
            json.dumps({"kind": "something-else"}), encoding="utf-8"
        )
        assert cache.load(key) is None

    def test_version_mismatch_discarded(self, entry):
        cache, key, stats = entry
        payload = results_io.stats_payload(stats)
        payload["format_version"] = 999
        cache.path(key).write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load(key) is None

    def test_concurrent_writers_of_one_key_both_land(
            self, entry, monkeypatch):
        # A second writer of the same key finishes inside the first
        # one's write window; the first writer's rename must still
        # find its own temp file.
        cache, key, stats = entry
        cache.path(key).unlink()
        write_text = Path.write_text
        inner = []

        def interleaved(path, *args, **kwargs):
            written = write_text(path, *args, **kwargs)
            if not inner:
                inner.append(path)
                cache.store(key, stats)
            return written

        monkeypatch.setattr(Path, "write_text", interleaved)
        cache.store(key, stats)
        monkeypatch.undo()
        assert inner
        assert cache.load(key).to_dict() == stats.to_dict()
        assert [p.name for p in cache.root.iterdir()] == [f"{key}.json"]

    def test_campaign_recomputes_corrupted_cells(self, tmp_path):
        configs = {"baseline": baseline_8way()}
        cache = ResultCache(tmp_path / "cache")
        first, _ = run_campaign(
            configs, workloads=("li", "gcc"), max_instructions=500,
            cache=cache,
        )
        corrupt = cache.path(cache_key(baseline_8way(), "li", 500))
        corrupt.write_text("garbage", encoding="utf-8")
        second, profile = run_campaign(
            configs, workloads=("li", "gcc"), max_instructions=500,
            cache=cache,
        )
        assert profile.cache_hits == 1  # gcc survived
        assert profile.simulated_cells == 1  # li recomputed, not crashed
        assert serialise(second) == serialise(first)


class TestFailureHandling:
    GRID = ("li",)  # one cell keeps the failure tests fast

    def test_serial_retry_then_success(self):
        calls = {"n": 0}

        def flaky(cell):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first attempt fails")
            return simulate_cell(cell)

        result, profile = run_campaign(
            {"baseline": baseline_8way()}, workloads=self.GRID,
            max_instructions=500, retries=1, runner=flaky,
        )
        assert calls["n"] == 2
        assert profile.retries == 1
        assert result.stats["baseline"]["li"].committed == 500

    def test_serial_retries_are_bounded(self):
        with pytest.raises(RuntimeError, match="permanent"):
            run_campaign(
                {"baseline": baseline_8way()}, workloads=self.GRID,
                max_instructions=500, retries=2, runner=_always_fails,
            )

    def test_worker_failure_degrades_to_serial(self):
        result, profile = run_campaign(
            {"baseline": baseline_8way()}, workloads=self.GRID,
            max_instructions=500, jobs=2, retries=1,
            runner=_fails_in_worker,
        )
        assert profile.retries == 1
        assert profile.serial_fallbacks == 1
        assert result.stats["baseline"]["li"].committed == 500

    def test_worker_timeout_degrades_to_serial(self):
        result, profile = run_campaign(
            {"baseline": baseline_8way()}, workloads=self.GRID,
            max_instructions=500, jobs=2, timeout=0.25, retries=0,
            runner=_hangs_in_worker,
        )
        assert profile.timeouts == 1
        assert profile.serial_fallbacks == 1
        assert result.stats["baseline"]["li"].committed == 500

    def test_parallel_and_fallback_results_identical(self):
        reference, _ = run_campaign(
            {"baseline": baseline_8way()}, workloads=self.GRID,
            max_instructions=500,
        )
        degraded, _ = run_campaign(
            {"baseline": baseline_8way()}, workloads=self.GRID,
            max_instructions=500, jobs=2, retries=0,
            runner=_fails_in_worker,
        )
        assert serialise(degraded) == serialise(reference)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign({"baseline": baseline_8way()}, jobs=0)
        with pytest.raises(ValueError, match="retries"):
            run_campaign({"baseline": baseline_8way()}, retries=-1)


class TestCampaignProfile:
    def test_counts_and_throughput(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        _, cold = run_campaign(
            {"baseline": baseline_8way()}, workloads=("li", "gcc"),
            max_instructions=500, cache=cache,
        )
        assert cold.cell_count == 2
        assert cold.simulated_cells == 2
        assert cold.simulated_instructions == 1_000
        assert cold.instructions_per_second > 0
        payload = cold.to_dict()
        json.dumps(payload)
        assert payload["cache_hits"] == 0
        assert len(payload["cells"]) == 2
        assert "cells (0 cache hits, 2 simulated)" in cold.format_report()

    def test_cell_payload_roundtrip(self):
        stats = simulate(baseline_8way(), get_trace("li", 500))
        payload = results_io.stats_payload(stats)
        assert (
            results_io.stats_from_payload(payload).to_dict()
            == stats.to_dict()
        )
        with pytest.raises(ValueError, match="cell-stats"):
            results_io.stats_from_payload({"kind": "other"})
        with pytest.raises(ValueError, match="object"):
            results_io.stats_from_payload([1, 2])


class TestCounterCacheAudit:
    """Cycle-skip attribution and pre-analysis identity survive the
    cache: warm hits return byte-identical counters, and editing the
    derived-data code invalidates every key."""

    def test_key_changes_with_preanalysis_version(self, edited_model):
        before = cache_key(baseline_8way(), "li", N)
        assert edited_model("uarch/preanalysis.py") != before

    def test_warm_hit_preserves_cycle_skip_attribution(self, tmp_path):
        """The optimized simulator folds skipped idle cycles into the
        stall/issue counters; a cache hit must reproduce them exactly."""
        grid = {"baseline": baseline_8way()}
        cache = ResultCache(tmp_path / "cache")
        cold, _ = run_campaign(
            grid, workloads=("li",), max_instructions=N, cache=cache
        )
        warm, profile = run_campaign(
            grid, workloads=("li",), max_instructions=N, cache=cache,
            runner=_forbidden,
        )
        assert profile.cache_hits == 1
        cold_stats = cold.stats["baseline"]["li"]
        warm_stats = warm.stats["baseline"]["li"]
        warm_stats.validate()
        assert json.dumps(warm_stats.to_dict(), sort_keys=True) == (
            json.dumps(cold_stats.to_dict(), sort_keys=True)
        )
        # The run really exercised cycle skipping (idle cycles show up
        # as zero-issue rows), so the equality above is load-bearing.
        assert warm_stats.issue_histogram.get(0, 0) > 0


class TestHeartbeats:
    """Live telemetry: one Heartbeat per completed cell."""

    def test_cold_run_emits_simulated_beats(self, fig13_grid, tmp_path):
        beats = []
        result, profile = run_campaign(
            fig13_grid, max_instructions=N,
            cache=ResultCache(tmp_path / "cache"), heartbeat=beats.append,
        )
        assert len(beats) == profile.cell_count
        assert {b.source for b in beats} == {"simulated"}
        assert {b.label for b in beats} == {
            f"{machine}/{workload}"
            for machine in fig13_grid for workload in WORKLOAD_NAMES
        }
        assert sum(b.instructions for b in beats) == (
            profile.simulated_instructions)
        assert all(b.seconds > 0 for b in beats)

    def test_warm_run_emits_cache_beats(self, fig13_grid, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(fig13_grid, max_instructions=N, cache=cache)
        beats = []
        _, profile = run_campaign(
            fig13_grid, max_instructions=N, cache=cache,
            heartbeat=beats.append,
        )
        assert profile.simulated_cells == 0
        assert len(beats) == profile.cell_count
        assert {b.source for b in beats} == {"cache"}

    def test_parallel_run_beats_cover_every_cell(self, fig13_grid):
        beats = []
        _, profile = run_campaign(
            fig13_grid, max_instructions=N, jobs=2, cache=None,
            heartbeat=beats.append,
        )
        assert len(beats) == profile.cell_count
        assert {b.source for b in beats} == {"simulated"}


class TestCampaignMetrics:
    """The exact-merge contract between workers and the parent."""

    def worker_payloads(self, fig13_grid):
        config = fig13_grid[next(iter(fig13_grid))]
        cells = [
            CampaignCell(machine="m", config=config, workload=workload,
                         max_instructions=N)
            for workload in WORKLOAD_NAMES[:2]
        ]
        return [simulate_cell(cell)["metrics"] for cell in cells]

    def test_worker_payload_merge_is_order_independent(self, fig13_grid):
        # Acceptance: two workers' snapshots merge byte-identically
        # regardless of which finishes first.
        from repro.obs.metrics import MetricsSnapshot

        a, b = [MetricsSnapshot.from_dict(p)
                for p in self.worker_payloads(fig13_grid)]
        assert (MetricsSnapshot.merge_all([a, b]).canonical_json()
                == MetricsSnapshot.merge_all([b, a]).canonical_json())

    def test_serial_and_parallel_runs_agree_exactly(self, fig13_grid):
        # Deterministic series (instruction/cycle/cell counts) are
        # identical for jobs=1 and jobs=N; only wall times may differ.
        serial_result, serial = run_campaign(
            fig13_grid, max_instructions=N, jobs=1, cache=None)
        parallel_result, parallel = run_campaign(
            fig13_grid, max_instructions=N, jobs=2, cache=None)
        assert serialise(serial_result) == serialise(parallel_result)
        for name in ("sim_instructions_total", "sim_cycles_total",
                     "campaign_cells_total",
                     "campaign_instructions_total"):
            assert serial.registry.labeled_values(name) == (
                parallel.registry.labeled_values(name)), name

    def test_profile_metrics_cover_cache_and_simulated(
            self, fig13_grid, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(fig13_grid, max_instructions=N, cache=cache)
        _, warm = run_campaign(fig13_grid, max_instructions=N, cache=cache)
        values = warm.registry.labeled_values("campaign_cells_total")
        assert values[(("source", "cache"),)] == warm.cell_count


class TestCampaignLedgerCli:
    """Acceptance: every CLI campaign run appends a ledger entry; the
    warm rerun records simulated_cells == 0."""

    def test_warm_rerun_appends_zero_simulation_entry(
            self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.ledger import Ledger

        argv = ["campaign", "fig13", "-n", "400",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "ledger: recorded campaign run" in capsys.readouterr().out

        cold, warm = Ledger().entries(kind="campaign")
        assert cold.simulated_cells == cold.cell_count > 0
        assert cold.cache_hits == 0
        assert warm.simulated_cells == 0
        assert warm.cache_hits == warm.cell_count == cold.cell_count
        assert warm.instructions_per_second == 0.0
        assert warm.config_hash == cold.config_hash != ""
        assert warm.metrics["kind"] == "repro-metrics-snapshot"
