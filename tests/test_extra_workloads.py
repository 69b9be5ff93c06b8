"""Tests for the Mini-compiled extra workloads."""

import pytest

from repro.core.machines import baseline_8way, clustered_dependence_8way
from repro.isa import Emulator
from repro.uarch.pipeline import simulate
from repro.workloads import EXTRA_WORKLOAD_NAMES, build_extra_program, get_trace


class TestExtraWorkloads:
    def test_names(self):
        assert EXTRA_WORKLOAD_NAMES == ("dct", "qsort")

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown extra workload"):
            build_extra_program("spice")

    @pytest.mark.parametrize("name", EXTRA_WORKLOAD_NAMES)
    def test_compiles_and_fills_cap(self, name):
        trace = get_trace(name, 4_000)
        assert len(trace) == 4_000
        assert not trace.halted  # they loop forever

    @pytest.mark.parametrize("name", EXTRA_WORKLOAD_NAMES)
    def test_simulates_on_all_machines(self, name):
        trace = get_trace(name, 3_000)
        for config in (baseline_8way(), clustered_dependence_8way()):
            stats = simulate(config, trace)
            assert stats.committed == 3_000
            assert 0 < stats.ipc <= 8

    def test_trace_cache(self):
        assert get_trace("dct", 1_000) is get_trace("dct", 1_000)

    def test_qsort_actually_sorts(self):
        # Run until the first quicksort round completes, then check
        # the array is sorted ascending in guest memory.
        program = build_extra_program("qsort")
        emulator = Emulator(program)
        base = program.data_labels["a_data"]
        previous_image = None
        for _round in range(400):
            emulator.run(max_instructions=1_000)
            emulator.halted = False  # keep stepping the endless loop
            words = [
                emulator.load(base + 4 * i, 4, signed=True) for i in range(128)
            ]
            if words == sorted(words) and any(words):
                break
            previous_image = words
        else:
            pytest.fail(f"array never observed sorted (last: {previous_image[:8]}...)")

    def test_dct_is_multiply_heavy(self):
        trace = get_trace("dct", 5_000)
        from repro.isa import OpClass

        counts = trace.class_counts()
        assert counts.get(OpClass.IMUL, 0) / len(trace) > 0.03
