"""Tests for the external JSONL trace format and its ingestion path.

Satellite guarantees: export -> load -> re-export is byte-identical;
every malformed-input class is rejected with a :class:`TraceFormatError`
naming the offending line; the committed golden fixture in
``tests/data/`` keeps the on-disk layout pinned across refactors; and
:func:`register_external_trace` turns a file into a first-class
workload that simulates like any other.
"""

import json
from pathlib import Path

import pytest

from repro.core.machines import baseline_8way
from repro.uarch.pipeline import simulate
from repro.workloads import get_trace
from repro.workloads.registry import (
    WORKLOAD_REGISTRY,
    register_external_trace,
)
from repro.workloads.trace_format import (
    TRACE_FORMAT_VERSION,
    TraceFormatError,
    convert_gem5_records,
    load_trace,
    load_trace_lines,
    save_trace,
    trace_lines,
)

GOLDEN = Path(__file__).parent / "data" / "golden_li64.jsonl"


def valid_lines() -> list[str]:
    """A minimal hand-built valid trace (header + three instructions)."""
    return [
        json.dumps({"format": "repro-trace",
                    "version": TRACE_FORMAT_VERSION,
                    "name": "tiny", "halted": True, "count": 3}),
        json.dumps({"pc": 0, "op": "addu", "srcs": [1, 2], "dest": 3,
                    "mem": None, "taken": False, "next": 1}),
        json.dumps({"pc": 1, "op": "lw", "srcs": [3], "dest": 4,
                    "mem": 256, "taken": False, "next": 2}),
        json.dumps({"pc": 2, "op": "bne", "srcs": [4], "dest": None,
                    "mem": None, "taken": True, "next": 0}),
    ]


class TestRoundTrip:
    def test_export_load_reexport_is_byte_identical(self, tmp_path):
        trace = get_trace("li", 200)
        first = save_trace(trace, tmp_path / "li.jsonl")
        loaded = load_trace(first)
        second = save_trace(loaded, tmp_path / "li2.jsonl")
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_trace_matches_original_field_by_field(self, tmp_path):
        trace = get_trace("compress", 150)
        loaded = load_trace(save_trace(trace, tmp_path / "c.jsonl"))
        assert len(loaded) == len(trace)
        assert loaded.halted == trace.halted
        assert loaded.name == trace.name
        for ours, theirs in zip(trace, loaded):
            assert ours.opcode == theirs.opcode
            assert ours.op_class == theirs.op_class
            assert ours.srcs == theirs.srcs
            assert ours.dest == theirs.dest
            assert ours.mem_addr == theirs.mem_addr
            assert (ours.is_load, ours.is_store, ours.is_branch,
                    ours.is_uncond) == (theirs.is_load, theirs.is_store,
                                        theirs.is_branch, theirs.is_uncond)
            assert ours.taken == theirs.taken
            assert ours.next_pc == theirs.next_pc

    def test_hand_built_lines_load(self):
        trace = load_trace_lines(valid_lines())
        assert len(trace) == 3
        assert trace.halted
        assert trace.name == "tiny"
        assert trace[1].is_load and trace[1].mem_addr == 256
        assert trace[2].is_branch and trace[2].taken


class TestGoldenFixture:
    """The committed fixture pins the on-disk layout."""

    def test_fixture_loads(self):
        trace = load_trace(GOLDEN)
        assert len(trace) == 64
        assert trace.name == "li"
        assert not trace.halted

    def test_fixture_reexports_byte_identically(self, tmp_path):
        loaded = load_trace(GOLDEN)
        out = save_trace(loaded, tmp_path / "golden.jsonl")
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_fixture_header_is_version_1(self):
        header = json.loads(GOLDEN.read_text().splitlines()[0])
        assert header["format"] == "repro-trace"
        assert header["version"] == 1


class TestMalformedRejection:
    """Every rejection names the offending line."""

    def check(self, lines, match):
        with pytest.raises(TraceFormatError, match=match):
            load_trace_lines(lines)

    def test_empty_file(self):
        self.check([], "line 1: empty file")

    def test_header_not_json(self):
        self.check(["not json"], "line 1: header is not valid JSON")

    def test_header_not_object(self):
        self.check(["[1,2]"], "line 1: header must be a JSON object")

    def test_wrong_format_magic(self):
        lines = valid_lines()
        header = json.loads(lines[0])
        header["format"] = "gem5-o3"
        lines[0] = json.dumps(header)
        self.check(lines, "line 1: not a repro-trace file")

    def test_version_mismatch(self):
        lines = valid_lines()
        header = json.loads(lines[0])
        header["version"] = TRACE_FORMAT_VERSION + 1
        lines[0] = json.dumps(header)
        self.check(lines, "version 2.*not supported")

    def test_bad_count(self):
        lines = valid_lines()
        header = json.loads(lines[0])
        header["count"] = -1
        lines[0] = json.dumps(header)
        self.check(lines, "line 1: count must be a non-negative integer")

    def test_truncated_file_count_mismatch(self):
        self.check(valid_lines()[:-1], "header count=3 but file holds 2")

    def test_record_not_json(self):
        lines = valid_lines()
        lines[2] = '{"pc": 1, "op":'
        self.check(lines, "line 3: not valid JSON")

    def test_missing_field(self):
        lines = valid_lines()
        record = json.loads(lines[1])
        del record["dest"]
        lines[1] = json.dumps(record)
        self.check(lines, "line 2: missing field 'dest'")

    def test_unknown_opcode(self):
        lines = valid_lines()
        record = json.loads(lines[1])
        record["op"] = "vfmadd231ps"
        lines[1] = json.dumps(record)
        self.check(lines, "line 2: unknown opcode 'vfmadd231ps'")

    def test_register_out_of_range(self):
        lines = valid_lines()
        record = json.loads(lines[1])
        record["srcs"] = [64]
        lines[1] = json.dumps(record)
        self.check(lines, "line 2: srcs must be registers in 1..63")

    def test_load_without_mem_address(self):
        lines = valid_lines()
        record = json.loads(lines[2])
        record["mem"] = None
        lines[2] = json.dumps(record)
        self.check(lines, "line 3: lw needs a non-negative mem address")

    def test_alu_with_mem_address(self):
        lines = valid_lines()
        record = json.loads(lines[1])
        record["mem"] = 8
        lines[1] = json.dumps(record)
        self.check(lines, "line 2: addu must not carry a mem address")

    def test_taken_alu_rejected(self):
        lines = valid_lines()
        record = json.loads(lines[1])
        record["taken"] = True
        lines[1] = json.dumps(record)
        self.check(lines, "line 2: non-control addu cannot be taken")

    def test_not_taken_branch_must_fall_through(self):
        lines = valid_lines()
        record = json.loads(lines[3])
        record["taken"] = False
        lines[3] = json.dumps(record)
        self.check(lines, "line 4: a not-taken branch must fall through")

    def test_control_flow_chain_break(self):
        lines = valid_lines()
        record = json.loads(lines[2])
        record["pc"], record["next"] = 7, 8
        lines[2] = json.dumps(record)
        self.check(lines, "line 3: control-flow break")


class TestGem5Converter:
    def test_basic_conversion(self):
        trace = convert_gem5_records([
            {"op_class": "IntAlu", "pc": 0, "srcs": [1], "dest": 2},
            {"op_class": "MemRead", "pc": 1, "srcs": [2], "dest": 3,
             "addr": 64},
            {"op_class": "Branch", "pc": 2, "srcs": [3], "taken": True,
             "next_pc": 0},
        ])
        assert len(trace) == 3
        assert trace[1].is_load and trace[1].mem_addr == 64
        assert trace[2].is_branch and trace[2].taken
        # A converted trace passes the strict validator.
        reloaded = load_trace_lines(list(trace_lines(trace)))
        assert len(reloaded) == 3

    def test_unmapped_class_rejected(self):
        with pytest.raises(TraceFormatError, match="SimdFloatMisc"):
            convert_gem5_records([{"op_class": "SimdFloatMisc", "pc": 0}])


class TestRegisterExternalTrace:
    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        before = dict(WORKLOAD_REGISTRY)
        yield
        WORKLOAD_REGISTRY.clear()
        WORKLOAD_REGISTRY.update(before)

    def test_registered_trace_is_a_first_class_workload(self, tmp_path):
        path = save_trace(get_trace("li", 300), tmp_path / "mine.jsonl")
        workload = register_external_trace(path)
        assert workload.name == "trace:mine"
        assert workload.kind == "external"
        assert WORKLOAD_REGISTRY["trace:mine"] is workload
        trace = workload.trace(100)
        assert len(trace) == 100
        assert trace.name == "trace:mine"
        stats = simulate(baseline_8way(), trace)
        assert stats.committed == 100

    def test_fingerprint_tracks_file_bytes(self, tmp_path):
        path_a = save_trace(get_trace("li", 50), tmp_path / "a.jsonl")
        path_b = save_trace(get_trace("gcc", 50), tmp_path / "b.jsonl")
        a = register_external_trace(path_a, name="ext-a")
        b = register_external_trace(path_b, name="ext-b")
        assert a.fingerprint() != b.fingerprint()
        assert a.identity()["kind"] == "external"

    def test_malformed_file_rejected_eagerly(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a trace\n")
        with pytest.raises(TraceFormatError):
            register_external_trace(bad)
        assert not any(name.startswith("trace:bad")
                       for name in WORKLOAD_REGISTRY)

    def test_duplicate_name_needs_replace(self, tmp_path):
        path = save_trace(get_trace("li", 40), tmp_path / "dup.jsonl")
        register_external_trace(path)
        with pytest.raises(ValueError, match="already registered"):
            register_external_trace(path)
        register_external_trace(path, replace=True)

    def test_reregistering_a_name_drops_its_cached_traces(self, tmp_path):
        # Traces are cached per (name, budget) while every cache key
        # hashes the new fingerprint, so a replaced workload must not
        # keep serving its predecessor's stream -- nor may a name
        # registered again after removal.
        def records(trace):
            return list(trace_lines(trace))[1:]  # the header names it

        li_path = save_trace(get_trace("li", 300), tmp_path / "li.jsonl")
        gcc_path = save_trace(get_trace("gcc", 300), tmp_path / "gcc.jsonl")
        register_external_trace(li_path, name="ext")
        assert records(get_trace("ext", 300)) == records(get_trace("li", 300))
        register_external_trace(gcc_path, name="ext", replace=True)
        assert records(get_trace("ext", 300)) == records(get_trace("gcc", 300))
        del WORKLOAD_REGISTRY["ext"]
        register_external_trace(li_path, name="ext")
        assert records(get_trace("ext", 300)) == records(get_trace("li", 300))
