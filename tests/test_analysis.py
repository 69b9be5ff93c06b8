"""Tests for the trace-analysis package."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    basic_block_lengths,
    branch_profile,
    dependence_distance_histogram,
    memory_profile,
    profile_trace,
    unbounded_dataflow_ilp,
    windowed_dataflow_ilp,
)
from repro.analysis.traces import mean_dependence_distance
from repro.core.experiments import serial_chain_trace
from repro.isa import assemble, run_to_trace
from repro.workloads import WORKLOAD_NAMES, SyntheticConfig, get_trace, synthetic_trace


def trace_of(source):
    return run_to_trace(assemble(source))


class TestDependenceDistances:
    def test_adjacent_dependence(self):
        trace = trace_of("li r1, 1\naddu r2, r1, r1\nhalt\n")
        histogram = dependence_distance_histogram(trace)
        assert histogram == {1: 2}  # both operands, distance 1

    def test_distance_counts(self):
        trace = trace_of("li r1, 1\nli r3, 2\naddu r2, r1, r3\nhalt\n")
        histogram = dependence_distance_histogram(trace)
        assert histogram == {2: 1, 1: 1}

    def test_mean_distance_empty(self):
        trace = trace_of("li r1, 1\nhalt\n")
        assert mean_dependence_distance(trace) == 0.0

    def test_workloads_have_short_distances(self):
        # The dependence-based premise: most producers are recent
        # (loop-invariant bases give the raw mean a long tail, so the
        # short-fraction is the meaningful statistic).
        from repro.analysis import short_dependence_fraction

        for name in WORKLOAD_NAMES:
            trace = get_trace(name, 3_000)
            assert short_dependence_fraction(trace, within=8) > 0.45

    def test_short_fraction_validation(self):
        from repro.analysis import short_dependence_fraction

        with pytest.raises(ValueError):
            short_dependence_fraction(trace_of("halt\n"), within=0)
        assert short_dependence_fraction(trace_of("halt\n")) == 0.0


class TestDataflowIlp:
    def test_serial_chain_is_one(self):
        trace = serial_chain_trace(100)
        assert unbounded_dataflow_ilp(trace) < 1.1
        assert windowed_dataflow_ilp(trace, 64) < 1.2

    def test_independent_code_is_wide(self):
        lines = [f"li r{3 + (i % 20)}, {i}" for i in range(100)]
        trace = trace_of("\n".join(lines) + "\nhalt\n")
        assert unbounded_dataflow_ilp(trace) > 20

    def test_window_bounds_ilp(self):
        trace = get_trace("go", 3_000)
        narrow = windowed_dataflow_ilp(trace, 16)
        wide = windowed_dataflow_ilp(trace, 256)
        assert narrow <= wide + 1e-9

    def test_windowed_at_most_unbounded_plus_boundary(self):
        # Chunk boundaries can only break chains, never join them, so
        # windowed ILP >= unbounded only through boundary resets --
        # for a single chunk they agree.
        trace = get_trace("perl", 100)
        assert windowed_dataflow_ilp(trace, 10_000) == pytest.approx(
            unbounded_dataflow_ilp(trace)
        )

    def test_empty_trace(self):
        trace = trace_of("halt\n")
        assert windowed_dataflow_ilp(trace) == 0.0
        assert unbounded_dataflow_ilp(trace) == 0.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            windowed_dataflow_ilp(trace_of("halt\n"), 0)


class TestBranchProfile:
    def test_counted_loop(self):
        trace = trace_of(
            "main: li r1, 10\nloop: addiu r1, r1, -1\nbgtz r1, loop\nhalt\n"
        )
        profile = branch_profile(trace)
        assert profile.count == 10
        assert profile.taken_fraction == pytest.approx(0.9)
        assert profile.static_sites == 1
        assert 0.0 <= profile.gshare_accuracy <= 1.0

    def test_jumps_excluded(self):
        trace = trace_of("main: b skip\nskip: halt\n")
        assert branch_profile(trace).count == 0

    def test_workload_branch_sites_plausible(self):
        profile = branch_profile(get_trace("gcc", 3_000))
        assert 3 <= profile.static_sites <= 100


class TestMemoryProfile:
    def test_counts(self):
        trace = trace_of(
            """
            .data
            buf: .space 64
            .text
            main: la r1, buf
            lw r2, 0(r1)
            sw r2, 32(r1)
            lw r3, 0(r1)
            halt
            """
        )
        profile = memory_profile(trace)
        assert profile.loads == 2
        assert profile.stores == 1
        assert profile.unique_words == 2
        assert profile.unique_lines == 2

    def test_invalid_line_size(self):
        with pytest.raises(ValueError):
            memory_profile(trace_of("halt\n"), line_bytes=0)


class TestBasicBlocks:
    def test_straightline_is_one_block(self):
        trace = trace_of("li r1, 1\nli r2, 2\nli r3, 3\nhalt\n")
        assert basic_block_lengths(trace) == [3]

    def test_loop_blocks(self):
        trace = trace_of(
            "main: li r1, 3\nloop: addiu r1, r1, -1\nbgtz r1, loop\nhalt\n"
        )
        # Block 1: li/addiu/bgtz (3); then addiu/bgtz twice (2, 2).
        assert basic_block_lengths(trace) == [3, 2, 2]


class TestProfileTrace:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_profiles_all_workloads(self, name):
        profile = profile_trace(get_trace(name, 2_000))
        assert profile.length == 2_000
        assert abs(sum(profile.class_mix.values()) - 1.0) < 1e-9
        assert profile.ilp_window_128 <= profile.length
        report = profile.format_report()
        assert name in report
        assert "dataflow ILP" in report

    def test_li_lowest_ilp(self):
        profiles = {
            name: profile_trace(get_trace(name, 3_000)) for name in WORKLOAD_NAMES
        }
        ilps = {name: p.ilp_window_128 for name, p in profiles.items()}
        assert min(ilps, key=ilps.get) == "li"

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1_000), st.integers(min_value=1, max_value=100))
    def test_synthetic_profiles_wellformed(self, length, seed):
        trace = synthetic_trace(SyntheticConfig(length=length, seed=seed))
        profile = profile_trace(trace)
        assert profile.length == length
        assert profile.mean_basic_block >= 0.0
