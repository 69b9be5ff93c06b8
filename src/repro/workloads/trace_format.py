"""The external trace format: versioned JSON-lines, strictly loaded.

This is the ingestion front end for traces produced *outside* the
bundled emulator -- hand-built streams, other simulators.  The format is deliberately boring:

* **Line 1 -- header**::

      {"format": "repro-trace", "version": 1,
       "name": "...", "halted": false, "count": 1234}

* **One line per committed instruction**, in commit order::

      {"pc": 12, "op": "lw", "srcs": [4], "dest": 7,
       "mem": 1024, "taken": false, "next": 13}

  ``op`` must be a mnemonic from the ISA opcode table
  (:data:`repro.isa.instructions.OPCODES`); execution class and the
  load/store/branch/jump flags are *derived* from it, never stated,
  so a file cannot contradict the ISA.  ``srcs`` lists at most two
  architectural source registers (1-63; register 0 is never a true
  dependence), ``dest`` is the destination register or ``null``,
  ``mem`` is the byte address for loads/stores (``null`` otherwise),
  and ``next`` is the static index of the following dynamic
  instruction.

The loader (:func:`load_trace`) validates everything it can --
header shape, version, opcode, register ranges and source counts,
memory-operand rules, control-flow consistency (``next`` must chain
to the next line's ``pc``), and the instruction count -- and raises
:class:`TraceFormatError` with the offending line number.  The
exporter (:func:`save_trace`) writes the same format for our own
traces, and round-trips byte-identically.

:data:`TRACE_FORMAT_VERSION` is bumped on any incompatible layout
change; a version-mismatched file is rejected, never misread.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.isa.trace import NO_PRODUCER, Trace
from repro.isa.instructions import OPCODES, OpClass

#: Version of the JSON-lines trace layout (header ``version`` field).
TRACE_FORMAT_VERSION = 1

#: Header ``format`` magic.
TRACE_FORMAT_NAME = "repro-trace"

#: Flat architectural register space (int 0-31, fp 32-63).
_NUM_REGS = 64

#: Source registers of the widest ISA instruction.
_MAX_SRCS = 2


class TraceFormatError(ValueError):
    """A malformed external trace file (always names the line)."""


def _fail(line_number: int, message: str) -> None:
    raise TraceFormatError(f"line {line_number}: {message}")


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------


def trace_lines(trace: Trace) -> Iterable[str]:
    """The JSONL lines of ``trace`` (header first), without newlines."""
    yield json.dumps({
        "format": TRACE_FORMAT_NAME,
        "version": TRACE_FORMAT_VERSION,
        "name": trace.name,
        "halted": trace.halted,
        "count": len(trace),
    }, sort_keys=True, separators=(",", ":"))
    for pc, op, srcs, dest, mem, taken, next_pc in zip(
            trace.pc, trace.opcode, trace.srcs, trace.dest, trace.mem_addr,
            trace.taken, trace.next_pc):
        yield json.dumps({
            "pc": pc,
            "op": op,
            "srcs": list(srcs),
            "dest": dest,
            "mem": mem,
            "taken": taken,
            "next": next_pc,
        }, sort_keys=True, separators=(",", ":"))


def save_trace(trace: Trace, path: str | Path) -> Path:
    """Export ``trace`` to ``path`` in the JSONL format."""
    path = Path(path)
    path.write_text("\n".join(trace_lines(trace)) + "\n", encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# strict loading
# ----------------------------------------------------------------------


def _parse_header(line: str) -> dict:
    try:
        header = json.loads(line)
    except ValueError:
        _fail(1, "header is not valid JSON")
    if not isinstance(header, dict):
        _fail(1, "header must be a JSON object")
    if header.get("format") != TRACE_FORMAT_NAME:
        _fail(1, f"not a {TRACE_FORMAT_NAME} file "
                 f"(format={header.get('format')!r})")
    version = header.get("version")
    if version != TRACE_FORMAT_VERSION:
        _fail(1, f"trace format version {version!r} is not supported "
                 f"(this loader reads version {TRACE_FORMAT_VERSION})")
    count = header.get("count")
    if not isinstance(count, int) or count < 0:
        _fail(1, f"count must be a non-negative integer, got {count!r}")
    if not isinstance(header.get("halted"), bool):
        _fail(1, "halted must be a boolean")
    return header


def _parse_record(record: dict, line_number: int) -> tuple:
    for field_name in ("pc", "op", "srcs", "dest", "mem", "taken", "next"):
        if field_name not in record:
            _fail(line_number, f"missing field {field_name!r}")
    pc, next_pc = record["pc"], record["next"]
    if not isinstance(pc, int) or pc < 0:
        _fail(line_number, f"pc must be a non-negative integer, got {pc!r}")
    if not isinstance(next_pc, int) or next_pc < 0:
        _fail(line_number, f"next must be a non-negative integer, "
                           f"got {next_pc!r}")
    opcode = record["op"]
    info = OPCODES.get(opcode)
    if info is None:
        _fail(line_number, f"unknown opcode {opcode!r}")
    op_class = info.op_class
    srcs = record["srcs"]
    if (not isinstance(srcs, list)
            or not all(isinstance(r, int) and 0 < r < _NUM_REGS
                       for r in srcs)):
        _fail(line_number, f"srcs must be registers in 1..{_NUM_REGS - 1}, "
                           f"got {srcs!r}")
    if len(srcs) > _MAX_SRCS:
        _fail(line_number, f"{opcode} lists {len(srcs)} srcs; no ISA "
                           f"instruction reads more than {_MAX_SRCS}")
    dest = record["dest"]
    if dest is not None and not (isinstance(dest, int)
                                 and 0 < dest < _NUM_REGS):
        _fail(line_number, f"dest must be null or a register in "
                           f"1..{_NUM_REGS - 1}, got {dest!r}")
    mem_addr = record["mem"]
    is_load = op_class is OpClass.LOAD
    is_store = op_class is OpClass.STORE
    if is_load or is_store:
        if not isinstance(mem_addr, int) or mem_addr < 0:
            _fail(line_number, f"{opcode} needs a non-negative mem "
                               f"address, got {mem_addr!r}")
    elif mem_addr is not None:
        _fail(line_number, f"{opcode} must not carry a mem address")
    taken = record["taken"]
    if not isinstance(taken, bool):
        _fail(line_number, f"taken must be a boolean, got {taken!r}")
    is_branch = op_class is OpClass.BRANCH
    is_uncond = op_class is OpClass.JUMP
    if is_uncond and not taken:
        _fail(line_number, f"unconditional {opcode} must be taken")
    if not is_branch and not is_uncond:
        if taken:
            _fail(line_number, f"non-control {opcode} cannot be taken")
        if next_pc != pc + 1:
            _fail(line_number, f"non-control {opcode} must fall through "
                               f"to pc+1, got next={next_pc}")
    elif is_branch and not taken and next_pc != pc + 1:
        _fail(line_number, "a not-taken branch must fall through to pc+1")
    return pc, opcode, tuple(srcs), dest, mem_addr, taken, next_pc


def load_trace_lines(lines: Iterable[str]) -> Trace:
    """Parse and validate JSONL lines into a :class:`Trace`.

    The records append straight into the trace's columns, and a
    last-writer table over the registers gives each source operand
    its producer as the line is read.
    """
    iterator = iter(lines)
    try:
        first = next(iterator)
    except StopIteration:
        _fail(1, "empty file (expected a header line)")
    header = _parse_header(first)
    pcs: list[int] = []
    opcodes: list[str] = []
    srcs_col: list[tuple[int, ...]] = []
    dest_col: list[int | None] = []
    addr_col: list[int | None] = []
    taken_col: list[bool] = []
    links: list[tuple[int, ...]] = []
    writer: dict[int, int] = {}
    final_pc = 0
    for line_number, line in enumerate(iterator, start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            _fail(line_number, "not valid JSON")
        if not isinstance(record, dict):
            _fail(line_number, "instruction record must be a JSON object")
        pc, opcode, srcs, dest, mem_addr, taken, next_pc = _parse_record(
            record, line_number)
        if pcs and final_pc != pc:
            _fail(line_number,
                  f"control-flow break: previous next={final_pc} "
                  f"but this pc={pc}")
        links.append(tuple(writer.get(src, NO_PRODUCER) for src in srcs))
        if dest is not None:
            writer[dest] = len(pcs)
        pcs.append(pc)
        opcodes.append(opcode)
        srcs_col.append(srcs)
        dest_col.append(dest)
        addr_col.append(mem_addr)
        taken_col.append(taken)
        final_pc = next_pc
    if len(pcs) != header["count"]:
        _fail(1, f"header count={header['count']} but file holds "
                 f"{len(pcs)} instructions (truncated or padded?)")
    return Trace(pcs, opcodes, srcs_col, dest_col, addr_col, taken_col,
                 links, final_pc=final_pc, halted=header["halted"],
                 name=str(header.get("name", "")))


def load_trace(path: str | Path) -> Trace:
    """Load and strictly validate one external trace file.

    Raises:
        TraceFormatError: naming the offending line, for any malformed
            header, record, or count mismatch.
        OSError: if the file cannot be read.
    """
    text = Path(path).read_text(encoding="utf-8")
    return load_trace_lines(text.splitlines())
