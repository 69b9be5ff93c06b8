"""Table 1, 2 and 4 rows and the supporting-structure delays, rederived.

``tests/test_experiments_document.py`` requires every line of the
section builders verbatim in EXPERIMENTS.md.  These checks recompute
the same rows straight from the delay models and the paper's
calibration targets, one row or claim per test, without going through
the builders, so a builder that prints the wrong model quantity fails
here even when the document was regenerated from it.
"""

from pathlib import Path

import pytest

from repro.delay import (
    BypassDelayModel,
    CacheAccessDelayModel,
    CamRenameDelayModel,
    RegisterFileDelayModel,
    RenameDelayModel,
    ReservationTableDelayModel,
    overall_delays,
)
from repro.delay.calibration import TABLE1, TABLE2_PS, TABLE4_018
from repro.technology import TECH_018, TECHNOLOGIES
from repro.uarch.config import CacheConfig

EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: The document's spelling of each technology.
LABELS = {"0.8um": "0.8 µm", "0.35um": "0.35 µm", "0.18um": "0.18 µm"}


@pytest.fixture(scope="module")
def document():
    # Paragraphs wrap at arbitrary words, so compare whitespace-folded.
    return " ".join(EXPERIMENTS.read_text(encoding="utf-8").split())


def section(document, title):
    """The text of the ``## <title>`` section, up to the next heading."""
    start = document.index(f"## {title}")
    end = document.find(" ## ", start + 1)
    return document[start:end if end != -1 else None]


def assert_printed(text, expected):
    assert expected in text, f"{expected!r} not in {text[:300]!r}..."


@pytest.mark.parametrize("issue_width", sorted(TABLE1))
def test_table1_rows(document, issue_width):
    text = section(document, "Table 1")
    paper_length, paper_delay = TABLE1[issue_width]
    for tech in TECHNOLOGIES:
        model = BypassDelayModel(tech)
        assert_printed(text, (
            f"| {issue_width} | {paper_length:.0f} / "
            f"{model.wire_length_lambda(issue_width):.0f} | "
            f"{paper_delay:.1f} / {model.total(issue_width):.1f} |"))


@pytest.mark.parametrize("tech", TECHNOLOGIES, ids=lambda tech: tech.name)
def test_table2_rows(document, tech):
    text = section(document, "Table 2")
    for (issue_width, window), paper in TABLE2_PS[tech.name].items():
        ours = overall_delays(tech, issue_width, window)
        measured = (ours.rename_ps, ours.window_logic_ps, ours.bypass_ps)
        cells = " | ".join(f"{p:.1f} / {m:.1f}" for p, m in zip(paper, measured))
        assert_printed(
            text, f"| {LABELS[tech.name]} | {issue_width}-way/{window} | {cells} |")


def test_table2_headline(document):
    ours = overall_delays(TECH_018, 8, 64)
    assert ours.bypass_ps > ours.window_logic_ps
    assert_printed(section(document, "Table 2"), (
        f"the bypass delay ({ours.bypass_ps:.1f} ps) overtakes the window "
        f"logic ({ours.window_logic_ps:.1f} ps)"))


@pytest.mark.parametrize("issue_width", sorted(TABLE4_018))
def test_table4_rows(document, issue_width):
    paper = TABLE4_018[issue_width]
    model = ReservationTableDelayModel(TECH_018)
    registers = paper["physical_registers"]
    assert_printed(section(document, "Table 4"), (
        f"| {issue_width} | {registers} | "
        f"{model.entries(registers)} × {paper['bits']} | "
        f"{paper['delay_ps']:.1f} / {model.total(issue_width, registers):.1f} |"))


def test_supporting_register_file(document):
    model = RegisterFileDelayModel(TECH_018)
    shared = model.machine_total(120, 8)
    per_cluster = model.clustered_total(120, 8, 2)
    assert_printed(section(document, "Supporting structures"), (
        f"8-way shared 16r/8w → {shared:.0f} ps; a per-cluster copy "
        f"(8r/8w) → {per_cluster:.0f} ps"))


def test_supporting_cam_vs_ram_rename(document):
    cam, ram = CamRenameDelayModel(TECH_018), RenameDelayModel(TECH_018)
    assert f"{cam.total(4, 80):.0f}" == f"{ram.total(4):.0f}"  # "equal"
    assert_printed(section(document, "Supporting structures"), (
        f"(2-way/64: {cam.total(2, 64):.0f} vs {ram.total(2):.0f} ps; "
        f"4-way/80: {cam.total(4, 80):.0f} vs {ram.total(4):.0f} ps, equal "
        f"by construction), divergent beyond "
        f"(8-way/256: {cam.total(8, 256):.0f} vs {ram.total(8):.0f} ps)"))


def test_supporting_cache_access(document):
    model = CacheAccessDelayModel(TECH_018)
    small, large = (model.total(CacheConfig(size_bytes=kb * 1024))
                    for kb in (8, 128))
    assert_printed(section(document, "Supporting structures"), (
        f"(8 KB → {small:.0f} ps, 128 KB → {large:.0f} ps at 0.18 µm)"))
