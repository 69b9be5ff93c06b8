"""Tests for the perf-regression tracker and the ``repro bench`` gate."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.ledger import Ledger, LedgerEntry
from repro.obs.regression import (
    DEFAULT_THRESHOLD,
    check_all,
    check_frontier_bench,
    check_simulator_bench,
    check_trailing_window,
    format_findings,
    load_bench,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def sim_payload(fast=150_000, reference=20_000, fast_floor=60_000,
                seed_floor=10_000):
    return {
        "kind": "repro-simulator-bench",
        "measured": {
            "baseline_8way/gcc (compiled)": fast,
            "baseline_8way/gcc (reference)": reference,
        },
        "recorded": {
            "compiled_min_rate_floor": fast_floor,
            "seed_min_rate_floor": seed_floor,
        },
    }


class TestSimulatorFloor:
    def test_clears_floors(self):
        assert check_simulator_bench(sim_payload()) == []

    def test_fast_path_below_floor(self):
        findings = check_simulator_bench(sim_payload(fast=10_000))
        (finding,) = findings
        assert finding.source == "floor"
        assert "baseline_8way/gcc (compiled)" in finding.subject
        assert finding.measured == 10_000.0
        assert finding.reference == 60_000.0

    def test_reference_label_uses_seed_floor(self):
        # 20k clears nothing but the seed floor: "(reference)" labels
        # route to the (lower) seed floor, not the compiled one.
        assert check_simulator_bench(sim_payload(reference=20_000)) == []
        findings = check_simulator_bench(sim_payload(reference=5_000))
        (finding,) = findings
        assert "(reference)" in finding.subject
        assert finding.reference == 10_000.0

    def test_unlabelled_rows_use_compiled_floor(self):
        payload = sim_payload()
        payload["measured"]["clustered_dependence_8way/gcc"] = 50_000
        (finding,) = check_simulator_bench(payload)
        assert finding.reference == 60_000.0

    def test_row_floor_gates_its_own_row(self):
        payload = sim_payload(fast=150_000)
        payload["recorded"]["compiled_row_floors"] = {
            "baseline_8way/gcc (compiled)": 160_000,
        }
        (finding,) = check_simulator_bench(payload)
        assert "baseline_8way/gcc (compiled)" in finding.subject
        assert finding.reference == 160_000.0
        payload["measured"]["baseline_8way/gcc (compiled)"] = 170_000
        assert check_simulator_bench(payload) == []

    def test_row_floor_never_undercuts_compiled_floor(self):
        payload = sim_payload(fast=50_000)
        payload["recorded"]["compiled_row_floors"] = {
            "baseline_8way/gcc (compiled)": 40_000,
        }
        (finding,) = check_simulator_bench(payload)
        assert finding.reference == 60_000.0

    def test_missing_floors_are_not_findings(self):
        payload = sim_payload()
        payload["recorded"] = {}
        assert check_simulator_bench(payload) == []


class TestFrontierFloor:
    def test_clears_and_fails(self):
        payload = {"measured": {"warm_speedup": 10.0},
                   "recorded": {"min_warm_speedup_floor": 2.0}}
        assert check_frontier_bench(payload) == []
        payload["measured"]["warm_speedup"] = 1.5
        (finding,) = check_frontier_bench(payload)
        assert finding.subject == "frontier warm-cache speedup"
        assert finding.measured == 1.5

    def test_empty_payload_ok(self):
        assert check_frontier_bench({}) == []


def rated(kind, rate, cells=0, hits=0):
    return LedgerEntry(kind=kind, instructions_per_second=rate,
                       cell_count=cells, cache_hits=hits, run_id="r" * 16)


class TestTrailingWindow:
    def test_throughput_drop_detected(self):
        entries = [rated("simulate", 100.0)] * 4 + [rated("simulate", 10.0)]
        (finding,) = check_trailing_window(entries)
        assert finding.source == "trailing"
        assert "simulate throughput" in finding.subject
        assert finding.measured == 10.0
        assert finding.reference == 100.0

    def test_mild_drop_within_threshold_passes(self):
        entries = [rated("simulate", 100.0), rated("simulate", 60.0)]
        assert check_trailing_window(entries, threshold=0.5) == []

    def test_zero_simulation_entries_excluded(self):
        # A fully warm campaign rerun (inst/s == 0) must not read as a
        # throughput collapse.
        entries = [rated("campaign", 100.0, cells=4, hits=0),
                   rated("campaign", 0.0, cells=4, hits=4)]
        assert check_trailing_window(entries) == []

    def test_hit_rate_drop_detected(self):
        entries = [rated("campaign", 0.0, cells=4, hits=4),
                   rated("campaign", 0.0, cells=4, hits=4),
                   rated("campaign", 0.0, cells=4, hits=0)]
        (finding,) = check_trailing_window(entries)
        assert "cache-hit rate" in finding.subject

    def test_kinds_compared_independently(self):
        entries = [rated("simulate", 100.0), rated("fuzz", 10.0)]
        assert check_trailing_window(entries) == []

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            check_trailing_window([], threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            check_trailing_window([], threshold=1.5)


class TestCheckAll:
    def test_committed_bench_records_pass(self):
        # Acceptance: the repo's own BENCH_*.json clear their floors.
        assert check_all(bench_dir=REPO_ROOT) == []

    def test_combines_bench_and_ledger(self, tmp_path):
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        (bench_dir / "BENCH_simulator.json").write_text(
            json.dumps(sim_payload(fast=10_000)))
        ledger = Ledger(tmp_path / "ledger")
        for entry in ([rated("simulate", 100.0)] * 3 +
                      [rated("simulate", 1.0)]):
            ledger.append(entry)
        findings = check_all(bench_dir=bench_dir, ledger=ledger)
        assert {f.source for f in findings} == {"floor", "trailing"}

    def test_load_bench_unreadable(self, tmp_path):
        assert load_bench(tmp_path / "missing.json") == {}
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert load_bench(bad) == {}

    def test_format_findings(self):
        assert "no regressions" in format_findings([])
        findings = check_simulator_bench(sim_payload(fast=10_000))
        assert "REGRESSION" in format_findings(findings)


class TestBenchCli:
    def test_check_passes_on_committed_floors(self, capsys):
        # Acceptance: `repro bench --check` exits 0 against the
        # committed BENCH_*.json records.
        code = main(["bench", "--check", "--bench-dir", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert code == 0
        assert "bench regression gate:" in out
        assert "no regressions" in out

    def test_check_fails_when_floor_raised(self, tmp_path, capsys):
        # Acceptance: artificially raising a committed floor must trip
        # the gate with a nonzero exit.
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        for name in ("BENCH_simulator.json", "BENCH_frontier.json"):
            shutil.copy(REPO_ROOT / name, bench_dir / name)
        payload = json.loads(
            (bench_dir / "BENCH_simulator.json").read_text())
        payload["recorded"]["compiled_min_rate_floor"] = 10 ** 9
        (bench_dir / "BENCH_simulator.json").write_text(json.dumps(payload))

        code = main(["bench", "--check", "--bench-dir", str(bench_dir)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_without_check_reports_but_passes(self, tmp_path, capsys):
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        (bench_dir / "BENCH_simulator.json").write_text(
            json.dumps(sim_payload(fast=1)))
        code = main(["bench", "--bench-dir", str(bench_dir)])
        assert code == 0
        assert "REGRESSION" in capsys.readouterr().out

    def test_bad_threshold_is_usage_error(self, tmp_path):
        code = main(["bench", "--check", "--bench-dir", str(tmp_path),
                     "--threshold", "7"])
        assert code == 2

    def test_trailing_window_via_ledger_dir(self, tmp_path, capsys):
        ledger = Ledger(tmp_path / "ledger")
        for entry in ([rated("simulate", 100.0)] * 3 +
                      [rated("simulate", 1.0)]):
            ledger.append(entry)
        code = main(["bench", "--check", "--bench-dir", str(tmp_path),
                     "--ledger-dir", str(tmp_path / "ledger")])
        assert code == 1
        assert "trailing" in capsys.readouterr().out

    def test_default_threshold_applied(self, tmp_path):
        assert 0.0 < DEFAULT_THRESHOLD <= 1.0
