"""The benchmark harness's ``BENCH_simulator.json`` writer.

``benchmarks/conftest.py`` folds every simulator rate a benchmark run
measured into the record's ``measured`` rows at the end of the run.
A run of only some rows (``pytest ... -k ...``) must replace those
rows and keep the others, or the record loses the rows whose floors
``tests/test_docs_sync.py`` checks.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


class _Reporter:
    def __init__(self):
        self.lines = []

    def write_line(self, line):
        self.lines.append(line)


def _load_conftest():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest_writer_under_test",
        REPO_ROOT / "benchmarks" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_partial_run_keeps_the_rows_it_did_not_measure(tmp_path,
                                                         monkeypatch):
    path = tmp_path / "BENCH_simulator.json"
    recorded = {"floors": {"a (compiled)": 50, "b (compiled)": 60}}
    path.write_text(json.dumps({
        "kind": "repro-simulator-bench",
        "measured": {"a (compiled)": 100, "b (compiled)": 120},
        "recorded": recorded,
    }))
    conftest = _load_conftest()
    monkeypatch.setattr(conftest, "BENCH_SIMULATOR_PATH", str(path))
    monkeypatch.setattr(conftest, "_SIM_RATES", {"b (compiled)": 130})

    conftest._write_sim_bench(_Reporter())

    stored = json.loads(path.read_text())
    assert stored["measured"] == {"a (compiled)": 100, "b (compiled)": 130}
    assert stored["recorded"] == recorded
    assert list(stored["measured"]) == sorted(stored["measured"])
