"""Tests for the perf-regression tracker and the ``repro bench`` gate."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.ledger import Ledger, LedgerEntry
from repro.obs.regression import (
    BENCH_NAMES,
    DEFAULT_THRESHOLD,
    check_all,
    check_bench,
    check_trailing_window,
    format_findings,
    load_bench,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def sim_payload(fast=150_000, reference=20_000):
    return {
        "kind": "repro-simulator-bench",
        "measured": {
            "baseline_8way/gcc (compiled)": fast,
            "baseline_8way/gcc (reference)": reference,
        },
        "recorded": {"floors": {
            "baseline_8way/gcc (compiled)": 60_000,
            "baseline_8way/gcc (reference)": 10_000,
        }},
    }


class TestSimulatorFloor:
    def test_clears_floors(self):
        assert check_bench("simulator", sim_payload()) == []

    def test_fast_path_below_floor(self):
        findings = check_bench("simulator", sim_payload(fast=10_000))
        (finding,) = findings
        assert finding.source == "floor"
        assert "baseline_8way/gcc (compiled)" in finding.subject
        assert finding.measured == 10_000.0
        assert finding.reference == 60_000.0

    def test_reference_label_uses_seed_floor(self):
        # 20k clears nothing but the seed floor: the reference row is
        # held to its own (lower) floor, not the compiled one.
        assert check_bench("simulator", sim_payload(reference=20_000)) == []
        findings = check_bench("simulator", sim_payload(reference=5_000))
        (finding,) = findings
        assert "(reference)" in finding.subject
        assert finding.reference == 10_000.0

    def test_row_floor_gates_its_own_row(self):
        payload = sim_payload(fast=150_000)
        payload["recorded"]["floors"]["baseline_8way/gcc (compiled)"] = (
            160_000)
        (finding,) = check_bench("simulator", payload)
        assert "baseline_8way/gcc (compiled)" in finding.subject
        assert finding.reference == 160_000.0
        payload["measured"]["baseline_8way/gcc (compiled)"] = 170_000
        assert check_bench("simulator", payload) == []

    def test_missing_floors_are_not_findings(self):
        payload = sim_payload()
        payload["recorded"] = {}
        assert check_bench("simulator", payload) == []


def gen_payload(kernel=600_000):
    return {
        "kind": "repro-workloads-bench",
        "measured": {
            "li (kernel)": kernel,
            "zoo_br_coin (synthetic)": 250_000,
        },
        "recorded": {"floors": {"li (kernel)": 20_000,
                                "zoo_br_coin (synthetic)": 20_000}},
    }


class TestWorkloadsFloor:
    def test_row_floor_gates_its_own_row(self):
        payload = gen_payload(kernel=250_000)
        payload["recorded"]["floors"]["li (kernel)"] = 300_000
        (finding,) = check_bench("workloads", payload)
        assert finding.subject == "workloads li (kernel)"
        assert finding.reference == 300_000.0
        payload["measured"]["li (kernel)"] = 310_000
        assert check_bench("workloads", payload) == []

    def test_missing_floors_are_not_findings(self):
        payload = gen_payload(kernel=1)
        payload["recorded"] = {}
        assert check_bench("workloads", payload) == []


class TestFrontierFloor:
    def test_clears_and_fails(self):
        payload = {"measured": {"warm_speedup": 10.0},
                   "recorded": {"floors": {"warm_speedup": 2.0}}}
        assert check_bench("frontier", payload) == []
        payload["measured"]["warm_speedup"] = 1.5
        (finding,) = check_bench("frontier", payload)
        assert finding.subject == "frontier warm_speedup"
        assert finding.measured == 1.5

    def test_empty_payload_ok(self):
        assert check_bench("frontier", {}) == []


class TestCheckBench:
    def test_rows_without_a_floor_are_not_gated(self):
        payload = sim_payload()
        payload["measured"]["clustered_dependence_8way/gcc (compiled)"] = 1
        assert check_bench("simulator", payload) == []

    def test_floors_without_a_measurement_are_not_gated(self):
        # A benchmark run that measured one row checks that row only.
        payload = sim_payload()
        del payload["measured"]["baseline_8way/gcc (reference)"]
        payload["recorded"]["floors"]["baseline_8way/gcc (reference)"] = (
            10 ** 9)
        assert check_bench("simulator", payload) == []

    def test_a_row_at_its_floor_clears_it(self):
        assert check_bench("simulator", sim_payload(fast=60_000)) == []


def rated(kind, rate, cells=0, hits=0, grid=""):
    return LedgerEntry(kind=kind, instructions_per_second=rate,
                       cell_count=cells, cache_hits=hits, run_id="r" * 16,
                       config_hash=grid)


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

    def test_grids_compared_independently(self):
        # A slow run of one grid is not a regression of a faster grid
        # of the same kind; a drop within one grid still is.
        fast_a = rated("campaign", 100.0, cells=4, grid="A")
        slow_b = rated("campaign", 10.0, cells=4, grid="B")
        assert check_trailing_window([fast_a, slow_b]) == []
        slow_a = rated("campaign", 40.0, cells=4, grid="A")
        (finding,) = check_trailing_window([fast_a, slow_b, slow_a])
        assert "campaign throughput" in finding.subject
        assert (finding.measured, finding.reference) == (40.0, 100.0)

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
        for name in BENCH_NAMES:
            shutil.copy(REPO_ROOT / f"BENCH_{name}.json", bench_dir)
        (bench_dir / "BENCH_simulator.json").write_text(
            json.dumps(sim_payload(fast=10_000)))
        ledger = Ledger(tmp_path / "ledger")
        for entry in ([rated("simulate", 100.0)] * 3 +
                      [rated("simulate", 1.0)]):
            ledger.append(entry)
        findings = check_all(bench_dir=bench_dir, ledger=ledger)
        assert {f.source for f in findings} == {"floor", "trailing"}

    @pytest.mark.parametrize("damage", ["delete", "truncate"])
    def test_missing_or_unreadable_record_is_a_finding(self, tmp_path, damage):
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        for name in BENCH_NAMES:
            shutil.copy(REPO_ROOT / f"BENCH_{name}.json", bench_dir)
        path = bench_dir / "BENCH_service.json"
        if damage == "delete":
            path.unlink()
        else:
            path.write_text(path.read_text()[:40])
        findings = check_all(bench_dir=bench_dir)
        assert [(f.subject, f.source) for f in findings] == [
            ("BENCH_service.json", "record")]
        assert "MISSING BENCH_service.json" in format_findings(findings)
        assert main(["bench", "--check", "--bench-dir", str(bench_dir)]) == 1

    def test_load_bench_unreadable(self, tmp_path):
        assert load_bench(tmp_path / "missing.json") == {}
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert load_bench(bad) == {}

    def test_format_findings(self):
        assert "no regressions" in format_findings([])
        findings = check_bench("simulator", sim_payload(fast=10_000))
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
        for name in BENCH_NAMES:
            shutil.copy(REPO_ROOT / f"BENCH_{name}.json", bench_dir)
        payload = json.loads(
            (bench_dir / "BENCH_simulator.json").read_text())
        payload["recorded"]["floors"]["baseline_8way/gcc (compiled)"] = 10 ** 9
        (bench_dir / "BENCH_simulator.json").write_text(json.dumps(payload))

        code = main(["bench", "--check", "--bench-dir", str(bench_dir)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_check_fails_when_a_row_drops_below_its_floor(
            self, name, tmp_path, capsys):
        # Acceptance: one measured row of any record dropped below its
        # floor trips the gate; the other three records stay committed.
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        for other in BENCH_NAMES:
            shutil.copy(REPO_ROOT / f"BENCH_{other}.json", bench_dir)
        path = bench_dir / f"BENCH_{name}.json"
        payload = json.loads(path.read_text())
        row, floor = sorted(payload["recorded"]["floors"].items())[0]
        payload["measured"][row] = floor * 0.99
        path.write_text(json.dumps(payload))

        code = main(["bench", "--check", "--bench-dir", str(bench_dir)])
        out = capsys.readouterr().out
        assert code == 1
        assert f"REGRESSION {name} {row}:" in out
        assert out.count("REGRESSION") == 1

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
