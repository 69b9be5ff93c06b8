"""Property tests for the per-config pipeline compiler.

``repro.uarch.compile`` turns one frozen :class:`MachineConfig` into
an ``exec``-compiled flat run function.  These tests pin the parts
the equivalence matrix (tests/test_fast_reference_equivalence.py)
does not: coverage of every valid config (no fallback path), the
compile cache's key sensitivity and memoization, the planted
miscompilation knobs the fuzzer self-test relies on, and the
no-forward-progress guard, which must fire *inside* compiled step
functions with the reference model's exact message shapes.
"""

import pytest

from repro.core.machines import MACHINE_REGISTRY, baseline_8way, ports_limited_8way
from repro.uarch import compile as compile_mod
from repro.uarch.compile import (
    compile_cache_key,
    compile_cache_stats,
    compiled_runner,
    generate_source,
    run_compiled,
)
from repro.uarch.pipeline import SIMULATE_MODES, PipelineSimulator, simulate
from repro.workloads import get_trace

LENGTH = 400


@pytest.fixture(autouse=True)
def fresh_compile_cache():
    """Every test starts from (and leaves behind) an empty cache."""
    compile_mod.clear_compile_cache()
    yield
    compile_mod.clear_compile_cache()


def _forged(config, **fields):
    """A config carrying field values the validator would reject."""
    for name, value in fields.items():
        object.__setattr__(config, name, value)
    return config


class TestSupportsCompile:
    """Every valid config compiles; only forged ones are refused."""

    def test_registry_coverage(self):
        for factory in MACHINE_REGISTRY.values():
            assert "def _compiled_run" in generate_source(factory())

    def test_sampled_configs_compile(self):
        import random

        from repro.verify.sampler import sample_machine

        rng = random.Random(7)
        for _ in range(200):
            _shape, config = sample_machine(rng)
            assert "def _compiled_run" in generate_source(config), config

    def test_generate_source_rejects_unsupported_shapes(self):
        forged = _forged(baseline_8way(), scheduler="oracle")
        with pytest.raises(ValueError, match="cannot compile"):
            generate_source(forged)

    def test_compiled_runner_rejects_unsupported_shapes(self):
        from repro.core.machines import dependence_based_8way

        forged = _forged(dependence_based_8way(), regfile="infinite")
        with pytest.raises(ValueError, match="cannot compile"):
            compiled_runner(forged)

    def test_source_is_a_flat_function(self):
        source = generate_source(baseline_8way())
        assert "def _compiled_run(sim, max_cycles):" in source
        # Constants are folded: the generated body never consults the
        # config object at run time.
        assert "sim.config" not in source

    @pytest.mark.parametrize("shape", sorted(MACHINE_REGISTRY))
    def test_every_shape_folds_its_config(self, shape):
        source = generate_source(MACHINE_REGISTRY[shape]())
        assert "sim.config" not in source


class TestCompileCacheKey:
    """Satellite: the key covers everything that changes the code."""

    def test_key_is_stable(self):
        assert compile_cache_key(baseline_8way(), False) == (
            compile_cache_key(baseline_8way(), False)
        )

    def test_key_changes_with_machine_config(self):
        assert compile_cache_key(baseline_8way(), False) != (
            compile_cache_key(baseline_8way(issue_width=4), False)
        )

    def test_key_changes_with_variant_flags(self):
        base = compile_cache_key(baseline_8way(), False)
        assert compile_cache_key(baseline_8way(), True) != base
        assert compile_cache_key(baseline_8way(), False, True) != base

    def test_key_changes_with_planted_bug(self, monkeypatch):
        before = compile_cache_key(baseline_8way(), False)
        monkeypatch.setattr(compile_mod, "_PLANTED_BUG", "load_hit_fold")
        assert compile_cache_key(baseline_8way(), False) != before

    def test_key_distinguishes_regfile_strategies(self):
        # read_ports=16 never binds, so behaviour matches unlimited --
        # but the generated code differs (port-budget loop folded in).
        assert compile_cache_key(baseline_8way(), False) != (
            compile_cache_key(
                ports_limited_8way(read_ports=16), False
            )
        )


class TestCompileCache:
    """One runner per variant, compiled once and then reused."""

    def test_recompile_is_idempotent(self):
        first = compiled_runner(baseline_8way())
        second = compiled_runner(baseline_8way())
        assert first is second
        stats = compile_cache_stats()
        assert stats["compiles"] == 1
        assert stats["cache_hits"] == 1
        assert stats["cached_runners"] == 1
        assert stats["compile_seconds"] > 0

    def test_variants_are_cached_separately(self):
        compiled_runner(baseline_8way())
        compiled_runner(baseline_8way(), traced=True)
        compiled_runner(baseline_8way(), profiled=True)
        assert compile_cache_stats()["cached_runners"] == 3
        assert compile_cache_stats()["compiles"] == 3

    def test_clear_zeroes_everything(self):
        compiled_runner(baseline_8way())
        compile_mod.clear_compile_cache()
        stats = compile_cache_stats()
        assert stats == {
            "compiles": 0,
            "cache_hits": 0,
            "compile_seconds": 0.0,
            "cached_runners": 0,
        }

    def test_clustered_shape_compiles_without_fallback(self):
        from repro.core.machines import clustered_dependence_8way

        trace = get_trace("li", LENGTH)
        simulate(clustered_dependence_8way(), trace, mode="compiled")
        assert compile_cache_stats()["compiles"] == 1


class TestSimulateModes:
    """The mode switch on the public simulate() entry point."""

    def test_mode_tuple(self):
        assert SIMULATE_MODES == ("reference", "compiled")

    def test_unknown_mode_rejected(self):
        trace = get_trace("li", LENGTH)
        with pytest.raises(ValueError, match="unknown simulate mode"):
            simulate(baseline_8way(), trace, mode="jit")

    def test_compiled_mode_matches_fast(self):
        """The default (compiled) mode is the fast path; it matches
        the reference model."""
        trace = get_trace("li", LENGTH)
        reference = simulate(baseline_8way(), trace, mode="reference")
        compiled = simulate(baseline_8way(), trace).to_dict()
        assert compiled == reference.to_dict()


class TestPlantedCompilerBug:
    """The knobs the fuzzer self-test turns must actually miscompile."""

    def test_load_hit_fold_diverges_from_fast(self, monkeypatch):
        monkeypatch.setattr(compile_mod, "_PLANTED_BUG", "load_hit_fold")
        trace = get_trace("gcc", LENGTH)
        bugged = run_compiled(PipelineSimulator(baseline_8way(), trace))
        reference = simulate(baseline_8way(), trace, mode="reference")
        assert bugged.to_dict() != reference.to_dict()

    def test_clean_compiler_does_not_diverge(self):
        trace = get_trace("gcc", LENGTH)
        clean = run_compiled(PipelineSimulator(baseline_8way(), trace))
        reference = simulate(baseline_8way(), trace, mode="reference")
        assert clean.to_dict() == reference.to_dict()

    def test_selftest_catches_and_minimizes(self, tmp_path):
        from repro.verify.selftest import run_compile_selftest

        result = run_compile_selftest(
            cases=8, seed=1, repro_dir=tmp_path, max_minimized=1
        )
        assert result.detected
        assert result.reproducer is not None
        assert result.minimized_instructions is not None
        assert result.minimized_instructions <= 12
        # The knob was restored and no sabotaged runner survived.
        assert compile_mod._PLANTED_BUG is None
        assert compile_cache_stats()["cached_runners"] == 0


    def test_blind_steer_diverges_from_reference(self, monkeypatch):
        from repro.core.machines import dependence_based_8way

        trace = get_trace("gcc", LENGTH)
        reference = simulate(dependence_based_8way(), trace, mode="reference")
        monkeypatch.setattr(compile_mod, "_PLANTED_BUG", "blind_steer")
        bugged = run_compiled(PipelineSimulator(dependence_based_8way(), trace))
        assert bugged.to_dict() != reference.to_dict()


class TestInlinedSteering:
    """Steering is generated code, so the reference model's steering
    classes are now an independent oracle for it."""

    @pytest.mark.parametrize("seed", (1, 12345, 2**32 + 7))
    def test_random_seed_matches_reference(self, seed):
        from repro.core.machines import clustered_random_8way

        config = clustered_random_8way(steering_seed=seed)
        trace = get_trace("gcc", LENGTH)
        compiled = simulate(config, trace).to_dict()
        assert compiled == simulate(config, trace, mode="reference").to_dict()

    def test_distinct_seeds_give_distinct_stats(self):
        from repro.core.machines import clustered_random_8way

        trace = get_trace("gcc", LENGTH)
        first = simulate(clustered_random_8way(steering_seed=1), trace)
        second = simulate(clustered_random_8way(steering_seed=12345), trace)
        assert first.to_dict() != second.to_dict()

    def test_seed_is_masked_and_keyed(self):
        # The generator's state is 32 bits wide (Lcg masks its seed),
        # so 2**32 + 7 runs the same code as 7 -- but the config, and
        # with it the compile key, still tells the two apart.
        from repro.core.machines import clustered_random_8way

        wide = clustered_random_8way(steering_seed=2**32 + 7)
        narrow = clustered_random_8way(steering_seed=7)
        assert "rng_state = 7\n" in generate_source(wide)
        assert generate_source(wide) == generate_source(narrow)
        assert compile_cache_key(wide, False) != (
            compile_cache_key(narrow, False)
        )

    @pytest.mark.parametrize("shape", sorted(MACHINE_REGISTRY))
    @pytest.mark.parametrize("variant", [
        {}, {"traced": True}, {"profiled": True},
    ])
    def test_runners_never_call_a_steering_object(self, shape, variant):
        source = generate_source(MACHINE_REGISTRY[shape](), **variant)
        assert "place(" not in source
        assert "OutstandingOperand" not in source


class TestCompiledProgressGuard:
    """The no-forward-progress guard fires *inside* the compiled step
    function -- a deadlocking port-budget shape must raise the
    reference model's exact message shapes, not hang."""

    def test_guard_fires_with_cycle_skip(self, monkeypatch):
        monkeypatch.setattr(compile_mod, "_PLANTED_BUG", "port_leak")
        trace = get_trace("gcc", 50)
        sim = PipelineSimulator(ports_limited_8way(), trace)
        with pytest.raises(
            RuntimeError,
            match=r"no forward progress possible at cycle \d+: no "
                  r"scheduled event remains \(13/50 committed\) -- "
                  r"simulator bug",
        ):
            run_compiled(sim)

    def test_guard_fires_without_cycle_skip(self, monkeypatch):
        monkeypatch.setattr(compile_mod, "_PLANTED_BUG", "port_leak")
        trace = get_trace("gcc", 50)
        # The load-delay-tracking scheduler never skips idle cycles.
        config = ports_limited_8way(scheduler="load_delay_tracking")
        sim = PipelineSimulator(config, trace)
        with pytest.raises(
            RuntimeError,
            match=r"no forward progress after \d+ cycles "
                  r"\(13/50 committed\) -- simulator bug",
        ):
            run_compiled(sim)
