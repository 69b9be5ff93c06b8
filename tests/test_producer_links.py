"""The producer links every trace source emits, against two derivations.

The emulator, the synthetic generator and the JSON-lines loader each
emit a trace's ``producers`` column while they build it, and the
compiled runner reads only that column.  The reference model reads
:func:`~repro.uarch.depend.dependence_info` instead, a walk over the
:class:`~repro.isa.trace.DynInst` view.  So the equivalence matrix no
longer runs both models on shared links, and this file checks the
emitted links against that walk and against a last-writer table kept
here over the ``srcs``/``dest`` columns (the table
``unbounded_dataflow_ilp`` keeps as ``level_of_reg``).

It also shows that a cell simulated the production way never builds
the record view, and so never runs the walk.
"""

from __future__ import annotations

import pytest

from repro.core.campaign import CampaignCell, simulate_cell
from repro.core.machines import MACHINE_REGISTRY
from repro.isa import assemble, run_to_trace
from repro.isa.trace import NO_PRODUCER, Trace
from repro.uarch.depend import dependence_info
from repro.workloads import get_workload, registry, workload_names
from repro.workloads.registry import (
    KIND_EXTERNAL,
    WORKLOAD_REGISTRY,
    register_external_trace,
)
from repro.workloads.trace_format import load_trace, save_trace

BUDGETS = (1_000, 4_000)
BUILTIN = tuple(name for name in workload_names()
                if get_workload(name).kind != KIND_EXTERNAL)


def last_writer_links(srcs: list, dest: list) -> list[tuple[int, ...]]:
    """Producer links from a register -> last-writer-seq table."""
    writer: dict[int, int] = {}
    links = []
    for seq, (reads, written) in enumerate(zip(srcs, dest)):
        links.append(tuple(writer.get(reg, NO_PRODUCER) for reg in reads))
        if written is not None:
            writer[written] = seq
    return links


def check_links(trace: Trace) -> None:
    emitted = trace.producers
    assert len(emitted) == len(trace)
    assert emitted == last_writer_links(trace.srcs, trace.dest)
    assert trace.real_producers == [
        tuple(p for p in links if p != NO_PRODUCER) for links in emitted]
    assert emitted == dependence_info(trace)


def test_every_builtin_workload_is_covered():
    assert len(BUILTIN) == 23


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", BUILTIN)
def test_emitted_links_match_both_walks(name, budget):
    check_links(get_workload(name)._loader(budget))


@pytest.mark.parametrize("name", ("gcc", "zoo_ilp_serial"))
def test_loaded_links_match_both_walks(name, tmp_path):
    path = save_trace(get_workload(name)._loader(BUDGETS[0]),
                      tmp_path / "t.jsonl")
    loaded = load_trace(path)
    check_links(loaded)
    assert loaded.producers == get_workload(name)._loader(BUDGETS[0]).producers


def test_prefix_keeps_the_links_and_the_halted_rule():
    full = run_to_trace(assemble(
        "li r1, 20\nloop: addiu r1, r1, -1\nsw r1, 0(r2)\n"
        "bgtz r1, loop\nhalt\n"))
    assert full.halted and len(full) == 61
    cut = full.prefix(30)
    assert cut.producers == full.producers[:30]
    assert not cut.halted
    assert cut.insts[-1].next_pc == full.insts[30].pc
    check_links(cut)
    whole = full.prefix(len(full) + 5)
    assert whole.halted and len(whole) == len(full)
    assert whole.insts[-1].next_pc == full.insts[-1].next_pc == 4


@pytest.fixture
def no_record_view(monkeypatch):
    """Fail any read of a trace's :class:`DynInst` view; run each
    workload's loader afresh."""
    def forbidden(trace):
        pytest.fail(f"built the DynInst view of {trace!r}")

    monkeypatch.setattr(Trace, "insts", property(forbidden))
    monkeypatch.setattr(registry, "_TRACE_CACHE", {})


@pytest.fixture
def external_trace(tmp_path):
    """``trace:ext``, a registered copy of li's stream."""
    before = dict(WORKLOAD_REGISTRY)
    path = save_trace(get_workload("li")._loader(1_500), tmp_path / "ext.jsonl")
    register_external_trace(path, name="trace:ext")
    yield "trace:ext"
    WORKLOAD_REGISTRY.clear()
    WORKLOAD_REGISTRY.update(before)


@pytest.mark.parametrize("machine", ("baseline", "clustered", "ports_limited"))
def test_simulate_cell_never_builds_the_view(machine, external_trace,
                                             no_record_view):
    for workload in ("gcc", "qsort", "zoo_br_coin", external_trace):
        payload = simulate_cell(CampaignCell(
            machine, MACHINE_REGISTRY[machine](), workload, 1_000))
        assert payload["stats"]["committed"] == 1_000
        trace = get_workload(workload).trace(1_000)  # the cached one
        assert not hasattr(trace, "_dependence_info")
