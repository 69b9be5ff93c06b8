"""Figure 17's mean relative IPCs and bypass peak, rederived.

``tests/test_experiments_document.py`` requires every line of the
Figure 17 builder verbatim in EXPERIMENTS.md.  These checks take the
builder's simulated grid (shared through the session's result cache,
so nothing is simulated twice) and format each printed number from
the :class:`~repro.core.experiments.ExperimentResult` itself, so a
builder that prints the wrong machine's mean or the wrong workload's
peak fails here even when the document was regenerated from it.
"""

import pytest

from repro.core.experiments import figure17
from tests.test_experiments_delay_tables import (  # noqa: F401 (fixture)
    EXPERIMENTS,
    assert_printed,
    document,
    section,
)

#: The document's row label of each clustered Figure 17 machine.
ROW_LABELS = {
    "clustered": "2-cluster FIFOs, dispatch steer",
    "clustered_windows": "2-cluster windows, dispatch steer",
    "exec_steer": "2-cluster 1 window, exec steer",
    "random": "2-cluster windows, random steer",
}


@pytest.fixture(scope="module")
def table_rows():
    return [line.strip() for line in
            EXPERIMENTS.read_text(encoding="utf-8").splitlines()
            if line.startswith("|")]


@pytest.fixture(scope="module")
def fig17(experiment_section):
    return experiment_section(figure17).data["result"]


def test_figure17_mean_relative_ipc(table_rows, fig17):
    reference, *clustered = fig17.machine_names
    assert sorted(clustered) == sorted(ROW_LABELS)
    for machine in clustered:
        mean = fig17.mean_relative_ipc(machine, reference)
        label = f"| {ROW_LABELS[machine]} |"
        printed = [line for line in table_rows if line.startswith(label)]
        assert len(printed) == 1, label
        assert printed[0].endswith(f"| {mean:.3f} |"), (printed[0], mean)


def test_figure17_random_steer_bypass_peak(document, fig17):
    frequency = fig17.bypass_frequency("random")
    workload = max(frequency, key=frequency.get)
    assert_printed(section(document, "Figure 17"), (
        f"ours peaks at {100 * frequency[workload]:.1f} % on {workload}"))
