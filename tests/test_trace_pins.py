"""Byte-identity pins for every trace source.

The timing model replays whatever stream the front end hands it, and a
synthetic workload's fingerprint hashes its *config*, not its output:
a generator that silently changed its stream would be served stale
from every cache tier.  So each built-in trace source is pinned here
against digests recorded from the straightforward implementation that
preceded the predecoded emulator and the inlined synthetic generator:

* the sha256 of every registry workload's ``repro-trace`` JSONL export
  (the bytes :func:`~repro.workloads.trace_format.save_trace` writes)
  at two budgets, plus a digest of all thirteen :class:`DynInst`
  fields (the export omits ``seq``, the op class and the flags);
* a digest of each kernel's final :class:`Emulator` state (registers,
  memory, ``pc``, ``executed``, ``halted``) at two budgets.

Re-record only for an intended change of trace semantics::

    PYTHONPATH=src python tests/test_trace_pins.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.isa.emulator import Emulator
from repro.workloads import (
    EXTRA_WORKLOAD_NAMES,
    WORKLOAD_NAMES,
    build_extra_program,
    build_program,
    get_workload,
    workload_names,
)
from repro.workloads.registry import KIND_EXTERNAL
from repro.workloads.trace_format import trace_lines

PINS_PATH = Path(__file__).parent / "data" / "trace_pins.json"
TRACE_BUDGETS = (1_000, 4_000)
STATE_BUDGETS = (4_000, 30_000)
KERNELS = WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES


def builtin_workloads() -> tuple[str, ...]:
    """Every registered workload that the package itself defines."""
    return tuple(name for name in workload_names()
                 if get_workload(name).kind != KIND_EXTERNAL)


def export_digest(trace) -> str:
    """sha256 of the trace's JSONL export, byte for byte."""
    text = "\n".join(trace_lines(trace)) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_digest(trace) -> str:
    """sha256 over every field of every record, in order."""
    digest = hashlib.sha256()
    for inst in trace:
        digest.update(repr((
            inst.seq, inst.pc, inst.opcode, inst.op_class.value,
            inst.srcs, inst.dest, inst.mem_addr, inst.is_store,
            inst.is_load, inst.is_branch, inst.is_uncond, inst.taken,
            inst.next_pc,
        )).encode("utf-8"))
    return digest.hexdigest()


def fresh_trace(name: str, budget: int):
    """A newly generated trace (never one cached by an earlier test)."""
    return get_workload(name)._loader(budget)


def kernel_program(name: str):
    if name in EXTRA_WORKLOAD_NAMES:
        return build_extra_program(name)
    return build_program(name)


def state_digest(emulator: Emulator) -> str:
    """sha256 of the emulator's architectural end state."""
    state = {
        "int_regs": emulator.int_regs,
        "fp_regs": [repr(value) for value in emulator.fp_regs],
        "memory": sorted(emulator.memory.items()),
        "pc": emulator.pc,
        "executed": emulator.executed,
        "halted": emulator.halted,
    }
    text = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def end_state_digest(name: str, budget: int) -> str:
    emulator = Emulator(kernel_program(name))
    emulator.run(budget)
    return state_digest(emulator)


def compute_pins() -> dict:
    traces = {}
    for name in builtin_workloads():
        for budget in TRACE_BUDGETS:
            trace = fresh_trace(name, budget)
            traces[f"{name}@{budget}"] = {
                "export": export_digest(trace),
                "records": record_digest(trace),
            }
    states = {f"{name}@{budget}": end_state_digest(name, budget)
              for name in KERNELS for budget in STATE_BUDGETS}
    return {"traces": traces, "end_states": states}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def test_every_builtin_workload_is_pinned(pins):
    expected = {f"{name}@{budget}" for name in builtin_workloads()
                for budget in TRACE_BUDGETS}
    assert set(pins["traces"]) == expected


@pytest.mark.parametrize("name", builtin_workloads())
def test_trace_bytes_match_pins(pins, name):
    for budget in TRACE_BUDGETS:
        trace = fresh_trace(name, budget)
        pinned = pins["traces"][f"{name}@{budget}"]
        assert export_digest(trace) == pinned["export"], (name, budget)
        assert record_digest(trace) == pinned["records"], (name, budget)


@pytest.mark.parametrize("name", KERNELS)
def test_emulator_end_state_matches_pins(pins, name):
    for budget in STATE_BUDGETS:
        assert end_state_digest(name, budget) == \
            pins["end_states"][f"{name}@{budget}"], (name, budget)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_trace_pins.py "
                 "--record")
    PINS_PATH.write_text(json.dumps(compute_pins(), indent=1,
                                    sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {PINS_PATH}")
