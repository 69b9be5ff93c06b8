"""Tests for the report renderers and the command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.machines import MACHINE_REGISTRY
from repro.report import bar_chart, grouped_bar_chart, text_table

ROOT = Path(__file__).resolve().parent.parent


class TestTextTable:
    def test_alignment(self):
        table = text_table(["name", "value"], [["a", 1.5], ["long-name", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # rectangular

    def test_float_formatting(self):
        assert "1.500" in text_table(["x"], [[1.5]])

    def test_mismatched_row_raises(self):
        with pytest.raises(ValueError, match="row width"):
            text_table(["a", "b"], [["only-one"]])

    def test_empty_rows(self):
        table = text_table(["a"], [])
        assert "a" in table


class TestBarCharts:
    def test_peak_fills_width(self):
        chart = bar_chart({"x": 1.0, "y": 2.0}, width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_unit_suffix(self):
        assert "2.000 IPC" in bar_chart({"x": 2.0}, unit=" IPC")

    def test_zero_values_ok(self):
        chart = bar_chart({"x": 0.0, "y": 0.0})
        assert "|" in chart

    def test_validation(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            bar_chart({"x": 1.0}, width=0)
        with pytest.raises(ValueError):
            bar_chart({"x": -1.0})

    def test_grouped(self):
        chart = grouped_bar_chart(
            {"compress": {"base": 2.0, "dep": 1.9},
             "gcc": {"base": 3.0, "dep": 2.8}}
        )
        assert "compress:" in chart
        assert chart.count("|") == 4

    def test_grouped_validation(self):
        with pytest.raises(ValueError):
            grouped_bar_chart({})
        with pytest.raises(ValueError, match="same bars"):
            grouped_bar_chart({"a": {"x": 1.0}, "b": {"y": 1.0}})

    def test_frontier_chart_groups_by_technology(self):
        from repro.core.frontier import FrontierPoint
        from repro.report import frontier_chart

        points = [
            FrontierPoint(label="baseline@0.18um", window_size=64,
                          mean_ipc=2.0, clock_ps=724.0, tech="0.18um"),
            FrontierPoint(label="baseline@0.35um", window_size=64,
                          mean_ipc=2.0, clock_ps=1484.7, tech="0.35um"),
        ]
        chart = frontier_chart(points)
        assert "0.18um:" in chart
        assert "0.35um:" in chart
        assert "BIPS" in chart
        assert chart.count("baseline") == 2


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["delay", "--tech", "0.18"])
        assert args.tech == 0.18

    def test_delay_command(self, capsys):
        assert main(["delay", "--tech", "0.18"]) == 0
        out = capsys.readouterr().out
        assert "577.9" in out  # Table 2 window logic
        assert "reservation table" in out

    def test_machines_command(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        for name in MACHINE_REGISTRY:
            assert name in out

    def test_workloads_command(self, capsys):
        assert main(["workloads", "-n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out
        assert "vortex" in out

    def test_workloads_profile(self, capsys):
        assert main(["workloads", "--profile", "-n", "1000"]) == 0
        assert "dataflow ILP" in capsys.readouterr().out

    def test_workloads_lists_the_zoo(self, capsys):
        assert main(["workloads", "-n", "500"]) == 0
        out = capsys.readouterr().out
        assert "zoo_ilp_wide" in out
        assert "synthetic" in out

    def test_workloads_kind_filter(self, capsys):
        assert main(["workloads", "--kind", "kernel", "-n", "500"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out
        assert "zoo_" not in out

    def test_simulate_command(self, capsys):
        assert main(["simulate", "baseline", "li", "-n", "2000"]) == 0
        assert "IPC=" in capsys.readouterr().out

    def test_simulate_verbose(self, capsys):
        assert main(["simulate", "dependence", "li", "-n", "2000", "-v"]) == 0
        out = capsys.readouterr().out
        assert "issued" in out
        assert 'sim_ipc{machine="dependence",workload="li"}' in out

    def test_campaign_fig17_prints_the_bypass_table(self, capsys):
        assert main(["campaign", "fig17", "-n", "500", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "\nrandom " in out  # a table row, keyed by registry key
        assert "inter-cluster bypass frequency:" in out
        assert "Section 5.5" not in out

    def test_campaign_fig15_prints_the_speedup_table(self, capsys):
        assert main(["campaign", "fig15", "-n", "500", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Section 5.5 clock-adjusted speedup:" in out
        assert "clock ratio (f_dep/f_win) = 1.253" in out
        assert "inter-cluster bypass frequency:" not in out

    @pytest.mark.parametrize("argv", [
        ["experiment", "fig13"],
        ["stats", "baseline", "li"],
        ["trace", "li", "--format", "metrics"],
    ])
    def test_removed_commands_are_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["campaign", "fig13", "--jobs", "0"],
        ["frontier", "--jobs", "0"],
        ["fuzz", "--cases", "0"],
        ["campaign", "fig13", "--retries", "-1"],
        ["simulate", "baseline", "gcc", "-n", "-5"],
        ["workloads", "-n", "-3"],
        ["ledger", "gc", "--keep", "-1"],
        ["ledger", "list", "--limit", "0"],
        ["ledger", "list", "--limit", "-1"],
    ])
    def test_out_of_range_counts_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "must be at least" in err and "Traceback" not in err

    def test_asm_command(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text(
            "main: li r1, 50\nloop: addiu r1, r1, -1\nbgtz r1, loop\nhalt\n"
        )
        assert main(["asm", str(source), "--listing",
                     "--simulate", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "executed" in out
        assert "IPC=" in out

    def test_unknown_machine_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "cray-1", "li"])

    def test_simulate_zoo_workload(self, capsys):
        assert main(["simulate", "baseline", "zoo_br_coin",
                     "-n", "1000"]) == 0
        assert "IPC=" in capsys.readouterr().out

    def test_simulate_trace_file(self, tmp_path, capsys):
        from repro.workloads import get_trace
        from repro.workloads.trace_format import save_trace

        path = save_trace(get_trace("li", 500), tmp_path / "ext.jsonl")
        assert main(["simulate", "baseline", "--trace-file", str(path),
                     "-n", "400"]) == 0
        assert "IPC=" in capsys.readouterr().out

    def test_simulate_trace_file_conflicts_with_workload(
        self, tmp_path, capsys
    ):
        path = tmp_path / "x.jsonl"
        path.write_text("")
        assert main(["simulate", "baseline", "li",
                     "--trace-file", str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_simulate_needs_a_workload(self, capsys):
        assert main(["simulate", "baseline"]) == 2
        assert "--trace-file" in capsys.readouterr().err

    def test_simulate_unknown_workload_lists_the_registry(self, capsys):
        assert main(["simulate", "baseline", "dhrystone"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err
        assert "zoo_ilp_wide" in err

    def test_simulate_malformed_trace_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("garbage\n")
        assert main(["simulate", "baseline",
                     "--trace-file", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_campaign_command(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["campaign", "fig13", "-n", "800", "--jobs", "2",
                "--cache-dir", str(cache_dir),
                "--out", str(tmp_path / "result.json"),
                "--metrics", str(tmp_path / "metrics.json")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "\ndependence " in out
        assert "0 cache hits, 14 simulated" in out
        assert (tmp_path / "result.json").exists()
        assert (tmp_path / "metrics.json").exists()
        # Warm rerun: the whole grid from cache, zero simulations.
        assert main(argv) == 0
        assert "14 cache hits, 0 simulated" in capsys.readouterr().out

    def test_campaign_over_the_zoo(self, tmp_path, capsys):
        from repro.workloads import ZOO_NAMES

        cache_dir = tmp_path / "cache"
        argv = ["campaign", "fig13", "-n", "400", "--workloads", "zoo",
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        expected = 2 * len(ZOO_NAMES)  # fig13 grid: 2 machines
        out = capsys.readouterr().out
        assert f"0 cache hits, {expected} simulated" in out
        assert "zoo_ilp_serial" in out
        # Warm rerun serves the whole zoo grid from cache.
        assert main(argv) == 0
        assert (f"{expected} cache hits, 0 simulated"
                in capsys.readouterr().out)

    def test_campaign_no_cache(self, tmp_path, capsys):
        assert main(["campaign", "fig13", "-n", "500", "--no-cache",
                     "--cache-dir", str(tmp_path / "unused")]) == 0
        assert "0 cache hits" in capsys.readouterr().out
        assert not (tmp_path / "unused").exists()

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # The reader is gone before the first write, as after `| head`.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "campaign", "fig15",
                 "-n", "500", "--no-cache"],
                stdout=write_end, stderr=subprocess.PIPE, cwd=tmp_path,
                env=env, timeout=120)
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 1

    def test_timeline_command(self, capsys):
        assert main(["timeline", "baseline", "li", "-n", "500",
                     "--count", "6"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "IPC=" in out

    def test_simulate_verbose_attributes_every_cycle(self, capsys):
        assert main(["simulate", "baseline", "zoo_ilp_wide", "-n", "500",
                     "-v"]) == 0
        out = capsys.readouterr().out
        assert "on zoo_ilp_wide: IPC=" in out
        attributed, total = re.search(
            r"attributed (\d+) of (\d+) cycles", out).groups()
        assert attributed == total
        assert "metrics snapshot:" in out

    def test_timeline_takes_a_non_paper_kernel(self, capsys):
        assert main(["timeline", "baseline", "qsort", "-n", "300",
                     "--count", "4"]) == 0
        assert "on qsort: IPC=" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["simulate", "baseline", "dhrystone"],
        ["trace", "dhrystone"],
        ["timeline", "baseline", "dhrystone"],
    ])
    def test_single_cell_commands_reject_unknown_workloads(
        self, argv, capsys
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error: unknown workload 'dhrystone'" in err
        assert "zoo_ilp_wide" in err and "synthetic" in err

    def test_frontier_command(self, capsys):
        assert main(["frontier", "-n", "800", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "BIPS" in out
        assert "dependence" in out
        assert "0.18um" in out
        assert "724.0" in out  # baseline clock from the delay layer

    def test_frontier_all_techs_with_cache_and_metrics(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "frontier.json"
        args = ["frontier", "-n", "500", "--tech", "all",
                "--cache-dir", str(tmp_path / "cache"),
                "--metrics", str(metrics)]
        assert main(args) == 0
        out = capsys.readouterr().out
        for tech in ("0.8um", "0.35um", "0.18um"):
            assert tech in out
        cold = json.loads(metrics.read_text())
        assert cold["simulated_cells"] > 0
        # Second run: all cells cached, zero simulations.
        assert main(args) == 0
        warm = json.loads(metrics.read_text())
        assert warm["simulated_cells"] == 0
        assert warm["cache_hits"] == cold["cell_count"]

    def test_delay_machine_breakdown(self, capsys):
        assert main(["delay", "--tech", "0.18",
                     "--machine", "clustered"]) == 0
        out = capsys.readouterr().out
        assert "clock bound" in out
        assert "critical path" in out
        assert "rename" in out
        assert "FIFO heads" in out
        # Default Table 2 output is untouched by the new flag.
        assert "reservation table" not in out

    def test_compile_command(self, tmp_path, capsys):
        source = tmp_path / "prog.mini"
        source.write_text(
            "func main() { var i; var s; i = 0; s = 0;"
            " while (i < 10) { s = s + i; i = i + 1; } return s; }"
        )
        assert main(["compile", str(source), "--listing",
                     "--simulate", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "main returned 45" in out
        assert "IPC=" in out
        assert "fn_main" in out  # the --listing assembly

    def test_compile_runs_the_program_once(self, tmp_path, capsys,
                                           monkeypatch):
        from repro.isa import Emulator

        runs = []
        real_run = Emulator.run

        def counting_run(self, *args, **kwargs):
            runs.append(args)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Emulator, "run", counting_run)
        source = tmp_path / "prog.mini"
        source.write_text("func main() { return 7; }")
        assert main(["compile", str(source), "--simulate", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "main returned 7" in out
        assert "IPC=" in out
        assert len(runs) == 1
