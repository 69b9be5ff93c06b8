"""Tests for the host-profiling harness (``repro.obs.profiling``)."""

from repro.core.machines import baseline_8way
from repro.obs import ProfileReport, profile_simulation
from repro.obs.events import EventTracer
from repro.obs.profiling import STAGE_LABELS, profile_run
from repro.uarch.pipeline import simulate
from repro.workloads import get_trace


class TestProfileSimulation:
    def test_stats_match_unprofiled_run(self):
        trace = get_trace("li", 1_500)
        config = baseline_8way()
        plain = simulate(config, trace)
        stats, report = profile_simulation(config, trace)
        assert stats.to_dict() == plain.to_dict()
        assert report.cycles == stats.cycles
        assert report.instructions == stats.committed

    def test_all_stages_timed(self):
        stats, report = profile_simulation(
            baseline_8way(), get_trace("gcc", 1_500)
        )
        assert set(report.stage_seconds) == set(STAGE_LABELS)
        assert all(v >= 0 for v in report.stage_seconds.values())
        assert sum(report.stage_seconds.values()) <= report.wall_seconds

    def test_rates_positive(self):
        _, report = profile_simulation(baseline_8way(), get_trace("li", 1_000))
        assert report.wall_seconds > 0
        assert report.instructions_per_second > 0
        assert report.cycles_per_second > 0
        assert report.overhead_seconds >= 0

    def test_profiling_composes_with_tracer(self):
        tracer = EventTracer()
        stats, report = profile_simulation(
            baseline_8way(), get_trace("li", 1_000), tracer=tracer
        )
        assert tracer.emitted > 0
        assert report.instructions == stats.committed

    def test_format_report_mentions_every_stage(self):
        _, report = profile_simulation(baseline_8way(), get_trace("li", 800))
        text = report.format_report()
        assert isinstance(report, ProfileReport)
        for label in STAGE_LABELS:
            assert label in text
        assert "instructions/s" in text

    def test_instrumentation_does_not_leak(self):
        """Profiling compiles its own runner variant; the unprofiled
        variant carries no probe code and a fresh simulator is not
        profiled."""
        from repro.uarch import compile as compile_mod
        from repro.uarch.pipeline import PipelineSimulator

        profile_simulation(baseline_8way(), get_trace("li", 500))
        fresh = PipelineSimulator(baseline_8way(), get_trace("li", 500))
        assert fresh.stage_times is None
        assert fresh.run().committed == 500
        profiled = compile_mod.generate_source(baseline_8way(), profiled=True)
        plain = compile_mod.generate_source(baseline_8way())
        assert "clock()" in profiled and "stage_t" in profiled
        assert "clock" not in plain and "stage_t" not in plain
        key = compile_mod.compile_cache_key
        assert key(baseline_8way(), False, True) != key(baseline_8way(), False)


class TestProfileRun:
    def test_returns_result_and_seconds(self):
        trace = get_trace("li", 500)
        stats, seconds = profile_run(simulate, baseline_8way(), trace)
        assert stats.committed == 500
        assert seconds > 0

    def test_passes_keyword_arguments(self):
        tracer = EventTracer()
        stats, _ = profile_run(
            simulate, baseline_8way(), get_trace("li", 500), tracer=tracer
        )
        assert stats.committed == 500
        assert tracer.emitted > 0


class TestZeroDivisionGuards:
    """Satellite regression tests: rate properties return 0.0 (never
    raise ZeroDivisionError) when no wall time has accrued."""

    def test_campaign_profile_rate_with_no_time(self):
        from repro.obs.profiling import CampaignProfile

        profile = CampaignProfile()
        assert profile.wall_seconds == 0.0
        assert profile.instructions_per_second == 0.0

    def test_fuzz_profile_rate_with_no_time(self):
        from repro.obs.profiling import FuzzProfile

        profile = FuzzProfile()
        assert profile.cases_per_second == 0.0

    def test_profile_report_rates_with_no_time(self):
        report = ProfileReport()
        assert report.instructions_per_second == 0.0
        assert report.cycles_per_second == 0.0


class TestRegistryBackedCampaignProfile:
    """The profile is a thin view over its metrics registry."""

    def make_profile(self):
        from repro.obs.profiling import CampaignProfile

        profile = CampaignProfile(jobs=2, wall_seconds=2.0)
        profile.note_cell("baseline/gcc", 0.0, 0, source="cache")
        profile.note_cell("baseline/li", 1.0, 800)
        return profile

    def test_note_cell_feeds_registry(self):
        profile = self.make_profile()
        assert profile.cache_hits == 1
        assert profile.simulated_cells == 1
        assert profile.cell_count == 2
        assert profile.simulated_instructions == 800
        assert profile.instructions_per_second == 400.0
        assert profile.registry.value(
            "campaign_cells_total", {"source": "cache"}) == 1
        assert profile.registry.value(
            "campaign_instructions_total", {"source": "simulated"}) == 800

    def test_pool_counters_are_registry_views(self):
        from repro.obs.profiling import POOL_METRIC_HELP

        profile = self.make_profile()
        for name, events in (("pool_retries_total", 1),
                             ("pool_timeouts_total", 2),
                             ("pool_serial_fallbacks_total", 1)):
            profile.registry.counter(
                name, POOL_METRIC_HELP[name]).inc(events)
        assert (profile.retries, profile.timeouts, profile.serial_fallbacks,
                profile.restarts) == (1, 2, 1, 0)

    def test_to_dict_carries_metrics_snapshot(self):
        payload = self.make_profile().to_dict()
        assert payload["cache_hits"] == 1
        assert payload["metrics"]["kind"] == "repro-metrics-snapshot"
        assert "campaign_cells_total" in payload["metrics"]["metrics"]

    def test_merge_worker_snapshot(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.profiling import CampaignProfile

        worker = MetricsRegistry()
        worker.counter("campaign_cells_total").inc(
            3, {"source": "simulated"})
        profile = CampaignProfile()
        profile.merge_worker_snapshot(worker.snapshot().to_dict())
        profile.merge_worker_snapshot(None)  # tolerated: no-op
        assert profile.simulated_cells == 3

    def test_format_metrics_matches_snapshot(self):
        from repro.obs.metrics import format_snapshot

        profile = self.make_profile()
        assert profile.format_metrics() == format_snapshot(
            profile.snapshot())


class TestRegistryBackedFuzzProfile:
    def test_note_case_feeds_registry(self):
        from repro.obs.profiling import FuzzProfile

        profile = FuzzProfile(wall_seconds=2.0)
        profile.note_case("baseline", "random", 0.5, failed=False)
        profile.note_case("clustered", "biased", 0.5, failed=True)
        assert profile.cases == 2
        assert profile.failures == 1
        assert profile.cases_per_second == 1.0
        assert profile.shape_counts == {"baseline": 1, "clustered": 1}
        assert profile.kind_counts == {"biased": 1, "random": 1}
        assert "metrics" in profile.to_dict()


class TestSimulationMetrics:
    def test_profile_simulation_records_into_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        config = baseline_8way()
        stats, report = profile_simulation(
            config, get_trace("li", 600), registry=registry
        )
        labels = {"machine": config.name, "workload": "li"}
        assert registry.value("sim_instructions_total",
                              labels) == stats.committed
        assert registry.value("sim_cycles_total", labels) == stats.cycles
        assert registry.value("sim_wall_seconds_total", labels) > 0

    def test_report_snapshot_includes_stage_histograms(self):
        _, report = profile_simulation(baseline_8way(), get_trace("li", 600))
        snapshot = report.snapshot()
        assert "profile_stage_seconds_total" in snapshot.metrics
        assert "sim_instructions_total" in snapshot.metrics
