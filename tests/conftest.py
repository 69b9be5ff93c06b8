"""Shared test fixtures.

Every test gets an isolated run ledger: CLI commands append to the
ledger on every invocation, and without this fixture a test calling
``main([...])`` from the repo root would grow a real ``.repro/ledger``
inside the checkout.
"""

import pytest

from repro.obs.ledger import LEDGER_DIR_ENV


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv(LEDGER_DIR_ENV, str(tmp_path / "ledger"))


@pytest.fixture(scope="session")
def experiment_section(tmp_path_factory):
    """Build EXPERIMENTS.md sections once per session.

    ``experiment_section(builder)`` runs one builder of
    :data:`repro.core.experiments.SECTIONS` at the budget the document
    records.  Every simulated builder shares one result cache, so a
    cell two sections use (Figure 13's baseline is also Figure 15's,
    Figure 17's and both frontiers') is simulated once.
    """
    from repro.core.campaign import ResultCache

    cache = ResultCache(tmp_path_factory.mktemp("experiments-cache"))
    built = {}

    def build(builder):
        if builder not in built:
            built[builder] = builder(cache=cache)
        return built[builder]

    return build
