"""Tests for the append-only run ledger and the bench-record writer."""

import json
from pathlib import Path

import pytest

from repro.obs.ledger import (
    BENCH_SCHEMA,
    LEDGER_DIR_ENV,
    LEDGER_SCHEMA,
    Ledger,
    LedgerEntry,
    diff_entries,
    git_sha,
    ledger_root,
    record_bench,
    record_profile,
    record_run,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import CampaignProfile


class TestLedgerRoot:
    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LEDGER_DIR_ENV, str(tmp_path / "env"))
        assert ledger_root(tmp_path / "explicit") == tmp_path / "explicit"

    def test_env_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LEDGER_DIR_ENV, str(tmp_path / "env"))
        assert ledger_root() == tmp_path / "env"


class TestAppend:
    def test_append_stamps_run_id_and_timestamp(self, tmp_path):
        ledger = Ledger(tmp_path)
        entry = ledger.append(LedgerEntry(kind="simulate", wall_seconds=1.5))
        assert entry.run_id
        assert entry.timestamp > 0
        (stored,) = ledger.entries()
        assert stored.run_id == entry.run_id
        assert stored.wall_seconds == 1.5

    def test_lines_are_single_json_objects(self, tmp_path):
        ledger = Ledger(tmp_path)
        ledger.append(LedgerEntry(kind="simulate"))
        ledger.append(LedgerEntry(kind="campaign"))
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["schema"] == LEDGER_SCHEMA

    def test_run_id_is_content_addressed(self, tmp_path):
        ledger = Ledger(tmp_path)
        a = ledger.append(LedgerEntry(kind="simulate", timestamp=10.0))
        b = ledger.append(LedgerEntry(kind="simulate", timestamp=10.0))
        c = ledger.append(LedgerEntry(kind="simulate", timestamp=11.0))
        assert a.run_id == b.run_id
        assert a.run_id != c.run_id


class TestEntries:
    def test_kind_filter_and_newest_limit(self, tmp_path):
        ledger = Ledger(tmp_path)
        for i in range(4):
            ledger.append(LedgerEntry(kind="simulate", wall_seconds=float(i)))
        ledger.append(LedgerEntry(kind="fuzz"))
        sims = ledger.entries(kind="simulate")
        assert [e.wall_seconds for e in sims] == [0.0, 1.0, 2.0, 3.0]
        newest = ledger.entries(kind="simulate", limit=2)
        assert [e.wall_seconds for e in newest] == [2.0, 3.0]
        assert ledger.entries(limit=0) == []
        assert len(ledger.entries(limit=9)) == 5
        with pytest.raises(ValueError, match="limit"):
            ledger.entries(limit=-1)

    def test_malformed_and_foreign_lines_skipped(self, tmp_path):
        ledger = Ledger(tmp_path)
        ledger.append(LedgerEntry(kind="simulate"))
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write("{torn half-li\n")
            handle.write('{"schema": 999, "kind": "simulate"}\n')
            handle.write("\n")
        ledger.append(LedgerEntry(kind="campaign"))
        assert [e.kind for e in ledger.entries()] == ["simulate", "campaign"]

    def test_missing_file_is_empty(self, tmp_path):
        assert Ledger(tmp_path / "nowhere").entries() == []

    def test_find_by_prefix_prefers_newest(self, tmp_path):
        ledger = Ledger(tmp_path)
        old = ledger.append(LedgerEntry(kind="simulate", timestamp=1.0))
        new = ledger.append(LedgerEntry(kind="simulate", timestamp=2.0))
        assert ledger.find(new.run_id[:6]).timestamp == 2.0
        assert ledger.find(old.run_id).timestamp == 1.0
        assert ledger.find("nope") is None


class TestGc:
    def test_keeps_newest_and_reports_removed(self, tmp_path):
        ledger = Ledger(tmp_path)
        for i in range(5):
            ledger.append(LedgerEntry(kind="simulate", wall_seconds=float(i)))
        assert ledger.gc(keep=2) == 3
        assert [e.wall_seconds for e in ledger.entries()] == [3.0, 4.0]
        assert ledger.gc(keep=2) == 0  # idempotent
        assert not ledger.path.with_suffix(".tmp").exists()

    def test_keep_above_the_entry_count_removes_nothing(self, tmp_path):
        ledger = Ledger(tmp_path)
        for i in range(3):
            ledger.append(LedgerEntry(kind="simulate", wall_seconds=float(i)))
        assert ledger.gc(keep=4) == 0
        assert [e.wall_seconds for e in ledger.entries()] == [0.0, 1.0, 2.0]

    def test_negative_keep_raises(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            Ledger(tmp_path).gc(keep=-1)


class TestDiff:
    def test_scalar_rows_with_deltas(self):
        old = LedgerEntry(kind="campaign", wall_seconds=2.0, cache_hits=0,
                          cell_count=4, instructions_per_second=100.0)
        new = LedgerEntry(kind="campaign", wall_seconds=1.0, cache_hits=4,
                          cell_count=4)
        rows = {row[0]: row for row in diff_entries(old, new)}
        assert rows["wall_seconds"] == ("wall_seconds", 2.0, 1.0, -1.0)
        assert rows["cache_hits"][3] == 4
        assert rows["cache_hit_rate"] == ("cache_hit_rate", 0.0, 1.0, 1.0)


class TestRecordHelpers:
    def test_record_run_with_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("cells_total").inc(2)
        entry = record_run(
            "campaign", wall_seconds=0.5, cache_hits=1, simulated_cells=1,
            cell_count=2, config_hash="abc", snapshot=registry.snapshot(),
            extra={"figure": "fig13"}, root=tmp_path,
        )
        (stored,) = Ledger(tmp_path).entries()
        assert stored.run_id == entry.run_id
        assert stored.config_hash == "abc"
        assert stored.extra == {"figure": "fig13"}
        assert stored.metrics["metrics"]["cells_total"]["kind"] == "counter"
        assert stored.cache_hit_rate == 0.5

    def test_record_profile(self, tmp_path):
        profile = CampaignProfile(wall_seconds=2.0)
        profile.note_cell("a/gcc", 1.0, 0, source="cache")
        profile.note_cell("b/gcc", 1.0, 500)
        entry = record_profile("frontier", profile, root=tmp_path)
        assert entry.kind == "frontier"
        assert entry.cache_hits == 1
        assert entry.simulated_cells == 1
        assert entry.cell_count == 2
        assert entry.instructions_per_second == 250.0
        assert entry.metrics is not None

    def test_git_sha_shape(self):
        sha = git_sha()
        assert sha == "unknown" or len(sha) == 40

    def test_git_sha_spawns_one_subprocess_per_process(self, monkeypatch):
        from repro.obs import ledger

        real_run = ledger.subprocess.run
        calls = []

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(ledger.subprocess, "run", counting_run)
        git_sha.cache_clear()
        first = git_sha()
        assert git_sha() == first
        assert len(calls) == 1


class TestRecordBench:
    def test_fresh_file(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        payload = record_bench(path, "repro-x-bench", {"rate": 42})
        stored = json.loads(path.read_text())
        assert stored == payload
        assert stored["bench_schema"] == BENCH_SCHEMA
        assert stored["kind"] == "repro-x-bench"
        assert stored["measured"] == {"rate": 42}
        assert path.read_text().endswith("\n")
        assert not path.with_suffix(".tmp").exists()

    def test_preserves_recorded_block(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({
            "kind": "repro-x-bench",
            "measured": {"rate": 10},
            "recorded": {"min_rate_floor": 5, "note": "hand-curated"},
        }))
        record_bench(path, "repro-x-bench", {"rate": 42})
        stored = json.loads(path.read_text())
        assert stored["measured"] == {"rate": 42}
        assert stored["recorded"] == {"min_rate_floor": 5,
                                      "note": "hand-curated"}

    def test_explicit_recorded_replaces(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        record_bench(path, "k", {"rate": 1}, recorded={"floor": 0})
        assert json.loads(path.read_text())["recorded"] == {"floor": 0}

    def test_a_failed_write_keeps_the_previous_file(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "BENCH_x.json"
        record_bench(path, "k", {"rate": 1})
        before = path.read_text()

        def failing_replace(self, target):
            raise OSError("injected rename failure")

        monkeypatch.setattr(Path, "replace", failing_replace)
        with pytest.raises(OSError, match="injected"):
            record_bench(path, "k", {"rate": 2})
        assert path.read_text() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_garbage_existing_file_recovered(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("not json{")
        payload = record_bench(path, "k", {"rate": 1})
        assert payload["measured"] == {"rate": 1}
        assert json.loads(path.read_text())["kind"] == "k"
