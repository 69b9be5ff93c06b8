"""Tests for the workload kernels and the synthetic trace generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import OpClass
from repro.workloads import (
    WORKLOAD_NAMES,
    SyntheticConfig,
    build_program,
    get_trace,
    synthetic_trace,
)

TRACE_LENGTH = 5_000


class TestKernelBasics:
    def test_seven_paper_benchmarks(self):
        assert WORKLOAD_NAMES == (
            "compress", "gcc", "go", "li", "m88ksim", "perl", "vortex",
        )

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            build_program("spice")

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_kernel_assembles(self, name):
        program = build_program(name)
        assert len(program) > 20

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_kernel_fills_any_cap(self, name):
        # Kernels loop indefinitely; the cap bounds the run.
        trace = get_trace(name, TRACE_LENGTH)
        assert len(trace) == TRACE_LENGTH
        assert not trace.halted

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_kernel_deterministic(self, name):
        first = get_trace(name, 2_000)
        # Bypass the cache: rebuild and rerun.
        from repro.isa import run_to_trace

        second = run_to_trace(build_program(name), max_instructions=2_000)
        assert [i.pc for i in first[:2_000]] == [i.pc for i in second]
        assert [i.taken for i in first[:2_000]] == [i.taken for i in second]

    def test_trace_cache_returns_same_object(self):
        assert get_trace("compress", 1_000) is get_trace("compress", 1_000)

    def test_all_traces_ordered(self):
        traces = [get_trace(name, 1_000) for name in WORKLOAD_NAMES]
        assert tuple(trace.name for trace in traces) == WORKLOAD_NAMES


class TestKernelCharacter:
    """The kernels must exhibit their namesakes' documented character."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_realistic_branch_fraction(self, name):
        trace = get_trace(name, TRACE_LENGTH)
        assert 0.04 < trace.branch_fraction() < 0.35

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_realistic_load_fraction(self, name):
        trace = get_trace(name, TRACE_LENGTH)
        assert 0.05 < trace.load_fraction() < 0.40

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_has_stores(self, name):
        trace = get_trace(name, TRACE_LENGTH)
        assert any(inst.is_store for inst in trace)

    @staticmethod
    def _windowed_ilp(trace, window=128):
        """Dataflow ILP within an in-flight window of ``window`` insts.

        Unit latency, infinite functional units, but parallelism can
        only be found inside consecutive window-sized chunks -- the
        resource a real 128-in-flight machine has.
        """
        total_levels = 0
        for start in range(0, len(trace), window):
            chunk = trace[start : start + window]
            level_of_reg: dict[int, int] = {}
            max_level = 0
            for inst in chunk:
                level = 1 + max(
                    (level_of_reg.get(s, 0) for s in inst.srcs), default=0
                )
                if inst.dest is not None:
                    level_of_reg[inst.dest] = level
                max_level = max(max_level, level)
            total_levels += max_level
        return len(trace) / total_levels if total_levels else float("inf")

    def test_li_is_pointer_chasing(self):
        # li must have the longest serial dependence chains (lowest
        # window-limited dataflow ILP) of the suite -- cdr loads feed
        # the next address computation.
        ilp = {
            name: self._windowed_ilp(get_trace(name, TRACE_LENGTH))
            for name in WORKLOAD_NAMES
        }
        assert ilp["li"] < 5.0
        assert ilp["li"] == min(ilp.values())

    def test_m88ksim_and_gcc_use_indirect_jumps(self):
        for name in ("m88ksim", "gcc"):
            trace = get_trace(name, TRACE_LENGTH)
            indirect = [i for i in trace if i.opcode in ("jr", "jalr")]
            assert indirect, f"{name} should dispatch indirectly"

    def test_vortex_is_call_heavy(self):
        trace = get_trace("vortex", TRACE_LENGTH)
        calls = sum(1 for i in trace if i.opcode in ("jal", "jalr"))
        assert calls / len(trace) > 0.02

    def test_go_is_branchy(self):
        trace = get_trace("go", TRACE_LENGTH)
        assert trace.branch_fraction() > 0.15

    def test_compress_stores_output(self):
        trace = get_trace("compress", TRACE_LENGTH)
        stores = [i for i in trace if i.is_store]
        assert len({i.mem_addr for i in stores}) > 10

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_memory_addresses_recorded(self, name):
        trace = get_trace(name, TRACE_LENGTH)
        for inst in trace:
            if inst.is_load or inst.is_store:
                assert inst.mem_addr is not None
            else:
                assert inst.mem_addr is None

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_pc_chain_is_consistent(self, name):
        trace = get_trace(name, TRACE_LENGTH)
        for prev, nxt in zip(trace, trace[1:]):
            assert prev.next_pc == nxt.pc


class TestSyntheticGenerator:
    def test_length(self):
        trace = synthetic_trace(SyntheticConfig(length=500))
        assert len(trace) == 500

    def test_deterministic_per_seed(self):
        config = SyntheticConfig(length=1_000, seed=7)
        a = synthetic_trace(config)
        b = synthetic_trace(config)
        assert [i.pc for i in a] == [i.pc for i in b]
        assert [i.taken for i in a] == [i.taken for i in b]

    def test_different_seeds_differ(self):
        a = synthetic_trace(SyntheticConfig(length=1_000, seed=1))
        b = synthetic_trace(SyntheticConfig(length=1_000, seed=2))
        assert [i.pc for i in a] != [i.pc for i in b]

    def test_class_mix_tracks_config(self):
        config = SyntheticConfig(
            length=20_000, load_fraction=0.3, store_fraction=0.1, branch_fraction=0.1
        )
        trace = synthetic_trace(config)
        assert trace.load_fraction() == pytest.approx(0.3, abs=0.12)
        assert trace.branch_fraction() == pytest.approx(0.1, abs=0.1)

    def test_loop_branch_always_closes(self):
        config = SyntheticConfig(length=2_000, body_size=16)
        trace = synthetic_trace(config)
        closers = [i for i in trace if i.pc == 15]
        assert closers
        assert all(i.taken and i.next_pc == 0 for i in closers)

    def test_dependences_reference_real_registers(self):
        trace = synthetic_trace(SyntheticConfig(length=2_000))
        produced = set()
        for inst in trace:
            for src in inst.srcs:
                assert src in produced or inst.seq < 64
            if inst.dest is not None:
                produced.add(inst.dest)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(length=-1)
        with pytest.raises(ValueError):
            SyntheticConfig(body_size=1)
        with pytest.raises(ValueError):
            SyntheticConfig(load_fraction=0.8, store_fraction=0.3)
        with pytest.raises(ValueError):
            SyntheticConfig(branch_taken_probability=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(mean_dependence_distance=0.5)
        with pytest.raises(ValueError):
            SyntheticConfig(memory_words=0)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2_000),
        st.integers(min_value=2, max_value=128),
        st.integers(min_value=1, max_value=1_000),
    )
    def test_any_config_produces_wellformed_trace(self, length, body, seed):
        trace = synthetic_trace(
            SyntheticConfig(length=length, body_size=body, seed=seed)
        )
        assert len(trace) == length
        for inst in trace:
            assert 0 <= inst.pc < body
            assert 0 <= inst.next_pc < body
            if inst.op_class is OpClass.STORE:
                assert inst.dest is None
