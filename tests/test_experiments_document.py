"""EXPERIMENTS.md's numbers regenerate from the code, verbatim.

Each builder in :data:`repro.core.experiments.SECTIONS` returns the
table rows and sentences one section of EXPERIMENTS.md prints, at the
budget the document records.  Every line must appear verbatim in its
section (paragraphs wrap at arbitrary words, so whitespace is folded).
A model, calibration or workload change that moves a published number
therefore fails here instead of drifting from the document.
"""

from pathlib import Path

import pytest

from repro.core.experiments import SECTIONS

EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def fold(text):
    return " ".join(text.split())


@pytest.fixture(scope="module")
def document():
    return fold(EXPERIMENTS.read_text(encoding="utf-8"))


def section_text(document, title):
    """The text of the ``## <title>`` section, up to the next heading."""
    start = document.index(f"## {title}")
    end = document.find(" ## ", start + 1)
    return document[start:end if end != -1 else None]


@pytest.mark.parametrize("builder", SECTIONS, ids=lambda b: b.__name__)
def test_section_printed_verbatim(document, experiment_section, builder):
    section = experiment_section(builder)
    text = section_text(document, section.title)
    assert section.lines
    missing = [line for line in section.lines if fold(line) not in text]
    assert not missing, f"{section.title}: not in EXPERIMENTS.md: {missing}"
