"""Tests for experiment-result JSON persistence."""

import json

import pytest

from repro.core.campaign import run_campaign
from repro.core.machines import baseline_8way
from repro.core.results_io import (
    FORMAT_VERSION,
    result_to_dict,
    save_result,
    stats_from_payload,
    stats_payload,
)
from repro.uarch.stats import SimStats, _COUNTER_FIELDS


@pytest.fixture(scope="module")
def small_result():
    result, _ = run_campaign(
        {"baseline": baseline_8way()},
        workloads=("li", "compress"),
        max_instructions=1_000,
        name="io-test",
    )
    return result


class TestStatsRoundtrip:
    def test_roundtrip_preserves_fields(self):
        stats = SimStats(machine="m", workload="w", committed=10, cycles=5)
        stats.note_stall("window_full")
        stats.note_issue(3)
        clone = SimStats.from_dict(stats.to_dict())
        assert clone.machine == "m"
        assert clone.ipc == stats.ipc
        assert clone.dispatch_stalls == {"window_full": 1}
        assert clone.issue_histogram == {3: 1}

    def test_histogram_keys_are_ints_after_load(self):
        stats = SimStats()
        stats.note_issue(7)
        clone = SimStats.from_dict(stats.to_dict())
        assert list(clone.issue_histogram) == [7]

    def test_clock_annotation_round_trips_byte_identically(self):
        stats = SimStats(machine="m", workload="w", committed=10, cycles=5)
        stats.clock_ps = 724.0
        payload = stats.to_dict()
        clone = SimStats.from_dict(payload)
        assert clone.clock_ps == 724.0
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            clone.to_dict(), sort_keys=True
        )

    def test_version1_payload_defaults_clock_to_zero(self):
        stats = SimStats(committed=10, cycles=5)
        payload = stats.to_dict()
        del payload["clock_ps"]
        assert SimStats.from_dict(payload).clock_ps == 0.0


class TestResultRoundtrip:
    def test_file_roundtrip(self, small_result, tmp_path):
        path = tmp_path / "result.json"
        save_result(small_result, path)
        saved = json.loads(path.read_text())
        assert saved["name"] == small_result.name
        assert saved["machine_names"] == small_result.machine_names
        assert saved["workloads"] == small_result.workloads
        for workload in small_result.workloads:
            loaded = SimStats.from_dict(saved["stats"]["baseline"][workload])
            assert loaded.to_dict() == (
                small_result.stats["baseline"][workload].to_dict()
            )

    def test_loaded_result_renders(self, small_result, tmp_path):
        path = tmp_path / "result.json"
        save_result(small_result, path)
        saved = json.loads(path.read_text())
        loaded = SimStats.from_dict(saved["stats"]["baseline"]["li"])
        assert loaded.summary() == (
            small_result.stats["baseline"]["li"].summary()
        )

    def test_json_is_stable(self, small_result, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_result(small_result, a)
        save_result(small_result, b)
        assert a.read_text() == b.read_text()

    def test_version_check(self):
        # Cache keys hash the version, so a cell of another version can
        # only be a corrupt file: it is rejected, never read.
        payload = stats_payload(SimStats(committed=10, cycles=5))
        assert stats_from_payload(payload).committed == 10
        for version in (FORMAT_VERSION - 1, 999):
            payload["format_version"] = version
            with pytest.raises(ValueError, match="unsupported cell-stats"):
                stats_from_payload(payload)

    def test_format_version_recorded(self, small_result):
        assert result_to_dict(small_result)["format_version"] == FORMAT_VERSION

    def test_clock_fields_bumped_the_format_version(self):
        # Version 3 added clock_ps; older readers must not misread the
        # new payloads as their own format.
        assert FORMAT_VERSION == 3

    def test_payload_is_plain_json(self, small_result):
        json.dumps(result_to_dict(small_result))  # must not raise


class TestCounterAudit:
    """Every plain counter -- including the cycle-skip attribution the
    optimized simulator adds -- survives serialisation and merging."""

    def _distinct_stats(self, offset: int) -> SimStats:
        stats = SimStats(machine="m", workload=f"w{offset}")
        for position, name in enumerate(_COUNTER_FIELDS):
            setattr(stats, name, offset + 3 * position)
        return stats

    def test_every_counter_field_round_trips(self):
        stats = self._distinct_stats(offset=11)
        clone = SimStats.from_dict(stats.to_dict())
        for name in _COUNTER_FIELDS:
            assert getattr(clone, name) == getattr(stats, name), name

    def test_merge_sums_every_counter_field(self):
        left, right = self._distinct_stats(5), self._distinct_stats(40)
        merged = left.merge(right)
        for name in _COUNTER_FIELDS:
            assert getattr(merged, name) == (
                getattr(left, name) + getattr(right, name)
            ), name

    def test_cycle_skip_run_round_trips_byte_identically(self):
        """A run that actually skipped idle cycles serialises losslessly.

        The optimized simulator replicates each skipped cycle's stall
        attribution and issue-histogram rows; the payload must come
        back byte-identical (and still pass the validate() audit) so
        cached campaign results are indistinguishable from live runs.
        """
        from repro.uarch.pipeline import PipelineSimulator
        from repro.workloads import get_trace

        simulator = PipelineSimulator(baseline_8way(), get_trace("li", 2_000))
        stats = simulator.run()
        assert simulator.skipped_cycles > 0  # the scenario is exercised
        payload = stats.to_dict()
        clone = SimStats.from_dict(payload)
        clone.validate()
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            clone.to_dict(), sort_keys=True
        )
