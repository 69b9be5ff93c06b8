"""Shared fixtures for the reproduction benchmarks.

Each ``bench_*`` module regenerates one of the paper's tables or
figures.  The reproduced rows are registered through the
``paper_report`` fixture and printed in the terminal summary (after
the pytest-benchmark timing table), so ``pytest benchmarks/
--benchmark-only`` shows both the timings and the paper-vs-measured
data.

Simulation length is controlled by the ``REPRO_BENCH_INSTRUCTIONS``
environment variable (default
``repro.core.experiments.DEFAULT_INSTRUCTIONS`` dynamic instructions
per benchmark program; the paper ran up to 0.5 B on real SPEC'95).

Every gated measurement goes through :func:`assert_clears_floors`,
which holds it to the row's floor in the repo-root ``BENCH_*.json``
record -- the same check ``repro bench --check`` runs.

Machine-readable output: set ``REPRO_BENCH_METRICS=/path/to.json``
and every run registered through the ``metrics_record`` fixture is
written there as one JSON document (each entry is a
``SimStats.to_dict`` payload -- the same audited serialisation the
exporters use).
"""

import json
import os

import pytest

from repro.core.experiments import (
    DEFAULT_INSTRUCTIONS,
    run_fig13,
    run_fig15,
    run_fig17,
)
from repro.obs.regression import check_bench, format_findings, load_bench

#: (title, text) report blocks, in registration order.
_REPORTS: list[tuple[str, str]] = []

#: SimStats payloads registered for the machine-readable export.
_METRICS: list[dict] = []

#: label -> measured simulator rate (inst/s) for BENCH_simulator.json.
_SIM_RATES: dict[str, float] = {}

#: The repo root, where the checked-in ``BENCH_*.json`` records live.
REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

#: The checked-in simulator throughput record.
BENCH_SIMULATOR_PATH = os.path.join(REPO_ROOT, "BENCH_simulator.json")


def bench_instructions() -> int:
    """Dynamic instructions per simulated benchmark run.

    Single-sourced from :data:`repro.core.experiments.DEFAULT_INSTRUCTIONS`
    so the benchmarks and the experiment drivers cannot drift apart.
    """
    return int(
        os.environ.get("REPRO_BENCH_INSTRUCTIONS", str(DEFAULT_INSTRUCTIONS))
    )


def assert_clears_floors(name: str, measured: dict) -> None:
    """Fail unless every ``measured`` row clears its floor in the
    ``recorded.floors`` table of ``BENCH_<name>.json``."""
    recorded = load_bench(
        os.path.join(REPO_ROOT, f"BENCH_{name}.json")).get("recorded", {})
    findings = check_bench(name, {"measured": measured,
                                  "recorded": recorded})
    assert not findings, format_findings(findings)


@pytest.fixture
def paper_report():
    """Register a (title, body) block for the end-of-run summary."""

    def add(title: str, body: str) -> None:
        _REPORTS.append((title, body))

    return add


@pytest.fixture
def metrics_record():
    """Register a run's SimStats for the REPRO_BENCH_METRICS export."""

    def add(stats) -> None:
        _METRICS.append(stats.to_dict())

    return add


@pytest.fixture
def sim_bench_record():
    """Register a measured simulator throughput (label -> inst/s).

    At the end of the run every registered rate is folded into
    ``BENCH_simulator.json`` next to the checked-in ``recorded``
    numbers, so a local or CI benchmark run always leaves a
    machine-readable before/after artifact.
    """

    def add(label: str, rate: float) -> None:
        _SIM_RATES[label] = round(float(rate))

    return add


def _write_sim_bench(terminalreporter) -> None:
    if not _SIM_RATES:
        return
    # Single-sourced bench recording: every BENCH_*.json write in the
    # repo goes through record_bench (schema-stamped, atomic).
    from repro.obs.ledger import record_bench

    record_bench(BENCH_SIMULATOR_PATH, "repro-simulator-bench",
                 dict(sorted(_SIM_RATES.items())))
    terminalreporter.write_line(
        f"wrote {len(_SIM_RATES)} simulator rates to {BENCH_SIMULATOR_PATH}"
    )
    _SIM_RATES.clear()


@pytest.fixture(scope="session")
def fig13_result():
    return run_fig13(max_instructions=bench_instructions())


@pytest.fixture(scope="session")
def fig15_result():
    return run_fig15(max_instructions=bench_instructions())


@pytest.fixture(scope="session")
def fig17_result():
    return run_fig17(max_instructions=bench_instructions())


def pytest_terminal_summary(terminalreporter):
    _write_sim_bench(terminalreporter)
    metrics_path = os.environ.get("REPRO_BENCH_METRICS")
    if metrics_path and _METRICS:
        with open(metrics_path, "w", encoding="utf-8") as handle:
            json.dump({"kind": "repro-bench-metrics", "runs": _METRICS},
                      handle, indent=1, sort_keys=True)
        terminalreporter.write_line(
            f"wrote {len(_METRICS)} run metrics to {metrics_path}"
        )
    _METRICS.clear()
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "paper reproduction results")
    for title, body in _REPORTS:
        terminalreporter.write_sep("-", title)
        for line in body.splitlines():
            terminalreporter.write_line(line)
    _REPORTS.clear()
