"""EXPERIMENTS.md's simulation numbers regenerate from the simulator.

The Figure 13, 15 and 17 grids run exactly as ``repro campaign
fig13|fig15|fig17`` runs them -- ``run_campaign(figure_configs(which))``
at the default budget the document records -- and each IPC row,
relative row, Figure 17 mean and the Section 5.5 table is formatted
at the precision the document prints and required verbatim in
EXPERIMENTS.md.  A model change that moves a published simulation
number fails here instead of drifting from the document.
"""

import pytest

from repro.core.campaign import ResultCache, run_campaign
from repro.core.experiments import DEFAULT_INSTRUCTIONS, figure_configs
from repro.core.speedup import clock_adjusted_speedup
from repro.technology import TECH_018
from tests.test_experiments_delay_tables import (  # noqa: F401 (fixture)
    EXPERIMENTS,
    assert_printed,
    document,
    section,
)

#: The document's row label of each machine, where it differs.
ROW_LABELS = {
    "baseline": "baseline (64-entry window)",
    "2-cluster.FIFOs.dispatch_steer": "2-cluster FIFOs, dispatch steer",
    "2-cluster.windows.dispatch_steer": "2-cluster windows, dispatch steer",
    "2-cluster.1window.exec_steer": "2-cluster 1 window, exec steer",
    "2-cluster.windows.random_steer": "2-cluster windows, random steer",
}


@pytest.fixture(scope="module")
def table_rows():
    return [line.strip() for line in
            EXPERIMENTS.read_text(encoding="utf-8").splitlines()
            if line.startswith("|")]


@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    # One cache for the three grids: Figure 15's window-based machine
    # is Figure 13's baseline, so its cells are simulated once.
    cache = ResultCache(tmp_path_factory.mktemp("figures-cache"))
    return {
        which: run_campaign(figure_configs(which), name=which,
                            max_instructions=DEFAULT_INSTRUCTIONS,
                            cache=cache)[0]
        for which in ("fig13", "fig15", "fig17")
    }


def row(label, values):
    return "| " + " | ".join([label, *(f"{v:.3f}" for v in values)]) + " |"


@pytest.mark.parametrize("which, title", [
    ("fig13", "Figure 13"), ("fig15", "Figure 15")])
def test_ipc_and_relative_rows(document, figures, which, title):
    result = figures[which]
    text = section(document, title)
    for machine in result.machine_names:
        ipcs = result.ipc_table()[machine].values()
        assert_printed(text, row(ROW_LABELS.get(machine, machine), ipcs))
    reference, machine = result.machine_names
    relative = result.relative_ipc(machine, reference).values()
    assert_printed(text, row("relative", relative))


def test_figure17_mean_relative_ipc(table_rows, figures):
    result = figures["fig17"]
    reference, *clustered = result.machine_names
    for machine in clustered:
        mean = result.mean_relative_ipc(machine, reference)
        label = f"| {ROW_LABELS[machine]} |"
        printed = [line for line in table_rows if line.startswith(label)]
        assert len(printed) == 1, label
        assert printed[0].endswith(f"| {mean:.3f} |"), (printed[0], mean)


def test_figure17_random_steer_bypass_peak(document, figures):
    frequency = figures["fig17"].bypass_frequency(
        "2-cluster.windows.random_steer")
    workload = max(frequency, key=frequency.get)
    assert_printed(section(document, "Figure 17"), (
        f"ours peaks at {100 * frequency[workload]:.1f} % on {workload}"))


def test_section55_speedups(document, figures):
    # The call ``repro campaign fig15`` prints under its IPC table.
    summary = clock_adjusted_speedup(
        figures["fig15"], "2-cluster dependence-based", "window-based 8-way",
        TECH_018,
    )
    text = section(document, "Section 5.5")
    assert_printed(text, f"= **{summary.clock_ratio:.3f}** at 0.18 µm")
    for workload, speedup in summary.per_workload.items():
        assert_printed(text, f"| {workload} | {100 * (speedup - 1):+.1f} % |")
    assert_printed(text, f"| **mean** | **{100 * (summary.mean - 1):+.1f} %** |")
