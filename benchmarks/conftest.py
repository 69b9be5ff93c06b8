"""Shared fixtures for the performance benchmarks.

Each ``bench_*`` module measures one layer of the system (simulator,
trace generation, campaign, frontier sweep, service, fuzzer).  Report
blocks registered through the ``bench_report`` fixture are printed in
the terminal summary, after the pytest-benchmark timing table.  The
paper's tables and figures are built by
``repro.core.experiments.SECTIONS`` and checked in tier 1
(``tests/test_experiments_document.py``), not here.

Simulation length is controlled by the ``REPRO_BENCH_INSTRUCTIONS``
environment variable (default
``repro.core.experiments.DEFAULT_INSTRUCTIONS`` dynamic instructions
per benchmark program).

Every gated measurement goes through :func:`assert_clears_floors`,
which holds it to the row's floor in the repo-root ``BENCH_*.json``
record -- the same check ``repro bench --check`` runs.
"""

import os

import pytest

from repro.core.experiments import DEFAULT_INSTRUCTIONS
from repro.obs.regression import check_bench, format_findings, load_bench

#: (title, text) report blocks, in registration order.
_REPORTS: list[tuple[str, str]] = []

#: label -> measured simulator rate (inst/s) for BENCH_simulator.json.
_SIM_RATES: dict[str, float] = {}

#: The repo root, where the checked-in ``BENCH_*.json`` records live.
REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

#: The checked-in simulator throughput record.
BENCH_SIMULATOR_PATH = os.path.join(REPO_ROOT, "BENCH_simulator.json")


def bench_instructions() -> int:
    """Dynamic instructions per simulated benchmark run.

    Single-sourced from :data:`repro.core.experiments.DEFAULT_INSTRUCTIONS`
    so the benchmarks and the campaign engine cannot drift apart.
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
def bench_report():
    """Register a (title, body) block for the end-of-run summary."""

    def add(title: str, body: str) -> None:
        _REPORTS.append((title, body))

    return add


@pytest.fixture
def sim_bench_record():
    """Register a measured simulator throughput (label -> inst/s).

    At the end of the run every registered rate is folded into
    ``BENCH_simulator.json``'s ``measured`` rows, next to the
    checked-in ``recorded`` numbers, so a local or CI benchmark run
    always leaves a machine-readable before/after artifact.  A run of
    only some rows (``-k ...``) replaces those rows and keeps the
    others.
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

    measured = {**load_bench(BENCH_SIMULATOR_PATH).get("measured", {}),
                **_SIM_RATES}
    record_bench(BENCH_SIMULATOR_PATH, "repro-simulator-bench",
                 dict(sorted(measured.items())))
    terminalreporter.write_line(
        f"wrote {len(_SIM_RATES)} simulator rates to {BENCH_SIMULATOR_PATH}"
    )
    _SIM_RATES.clear()


def pytest_terminal_summary(terminalreporter):
    _write_sim_bench(terminalreporter)
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "benchmark reports")
    for title, body in _REPORTS:
        terminalreporter.write_sep("-", title)
        for line in body.splitlines():
            terminalreporter.write_line(line)
    _REPORTS.clear()
