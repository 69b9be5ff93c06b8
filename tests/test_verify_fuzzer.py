"""Tests for the differential fuzzing engine.

Covers case derivation (determinism, replay), the serial and parallel
execution paths, budget handling, and the end-to-end planted-bug
self-tests -- the proof that the fuzzer detects and minimizes both a
steering bug planted into the compiled pipeline (caught differentially
against the reference) and a read-port arbiter bug planted through the
compiler's ``port_leak`` knob (caught by the compiled runner's own
deadlock guard); acceptance: each reproducer at most 25 instructions.
"""

import concurrent.futures

import pytest

from repro.verify.fuzzer import (
    FuzzCase,
    build_case_inputs,
    derive_case_seed,
    run_fuzz,
    run_fuzz_case,
)
from repro.verify.selftest import run_port_selftest, run_selftest


def test_case_seeds_are_deterministic_and_distinct():
    seeds = [derive_case_seed(0, case_id) for case_id in range(200)]
    assert seeds == [derive_case_seed(0, case_id) for case_id in range(200)]
    assert len(set(seeds)) == 200
    assert set(seeds).isdisjoint(
        derive_case_seed(1, case_id) for case_id in range(200)
    )


def test_build_case_inputs_is_pure():
    case = FuzzCase(case_id=3, case_seed=derive_case_seed(0, 3))
    first = build_case_inputs(case)
    second = build_case_inputs(case)
    assert first[0] == second[0]  # shape
    assert first[1] == second[1]  # machine config (frozen dataclass)
    assert first[2] == second[2]  # workload kind
    assert first[3] == second[3]  # workload config


def test_fifo_only_cases_sample_fifo_shapes_and_programs():
    for case_id in range(10):
        case = FuzzCase(
            case_id=case_id,
            case_seed=derive_case_seed(5, case_id),
            fifo_only=True,
        )
        shape, _, kind, _ = build_case_inputs(case)
        assert shape in ("dependence", "clustered")
        assert kind == "program"


def test_run_fuzz_case_payload_shape():
    case = FuzzCase(case_id=0, case_seed=derive_case_seed(0, 0))
    payload = run_fuzz_case(case)
    assert payload["case_id"] == 0
    assert payload["kind"] in ("program", "synthetic", "zoo")
    assert payload["failures"] == []
    assert payload["seconds"] > 0


def test_small_campaign_is_clean_and_covers_shapes(tmp_path):
    report = run_fuzz(cases=24, seed=0, jobs=1, repro_dir=tmp_path)
    assert report.ok, [f.failures[0] for f in report.failures]
    profile = report.profile
    assert profile.cases == 24
    assert len(profile.shape_counts) >= 3
    assert set(profile.kind_counts) <= {"program", "synthetic", "zoo"}
    assert "zoo" in profile.kind_counts  # the zoo draw fires at 24 cases
    assert not any(tmp_path.iterdir())  # no reproducers on a clean run


def test_parallel_matches_serial(tmp_path):
    serial = run_fuzz(cases=16, seed=9, jobs=1, repro_dir=tmp_path)
    parallel = run_fuzz(cases=16, seed=9, jobs=2, repro_dir=tmp_path)
    assert serial.ok and parallel.ok
    assert serial.profile.shape_counts == parallel.profile.shape_counts
    assert serial.profile.kind_counts == parallel.profile.kind_counts


def test_one_pool_serves_every_batch(tmp_path, monkeypatch):
    # 40 cases at jobs=2 run in three batches of at most 16; all three
    # share one process pool instead of building one per batch.
    built = []

    class CountingExecutor(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingExecutor)
    report = run_fuzz(cases=40, jobs=2, minimize=False, repro_dir=tmp_path)
    assert report.profile.cases == 40
    assert len(built) == 1


def test_case_seed_replay_runs_exactly_one_case(tmp_path):
    target = derive_case_seed(0, 17)
    report = run_fuzz(case_seed=target, repro_dir=tmp_path)
    assert report.profile.cases == 1
    assert report.ok


def test_time_budget_zero_skips_everything(tmp_path):
    report = run_fuzz(
        cases=50, seed=0, jobs=1, time_budget=0.0, repro_dir=tmp_path
    )
    assert report.profile.cases == 0
    assert report.profile.skipped == 50


def test_invalid_arguments_rejected(tmp_path):
    with pytest.raises(ValueError, match="cases"):
        run_fuzz(cases=0, repro_dir=tmp_path)
    with pytest.raises(ValueError, match="jobs"):
        run_fuzz(cases=1, jobs=0, repro_dir=tmp_path)


class TestPlantedBug:
    """End-to-end: the fuzzer must catch and shrink a real bug."""

    @pytest.fixture(scope="class")
    def selftest(self, tmp_path_factory):
        return run_selftest(
            cases=30, seed=1,
            repro_dir=tmp_path_factory.mktemp("repros"),
        )

    def test_bug_is_detected(self, selftest):
        assert selftest.detected
        assert not selftest.report.ok

    def test_caught_as_compiled_reference_divergence(self, selftest):
        first = selftest.report.failures[0]
        assert any(
            "compiled/reference SimStats diverge" in f for f in first.failures
        )

    def test_reproducer_is_small(self, selftest):
        assert selftest.reproducer is not None
        assert selftest.minimized_instructions is not None
        assert selftest.minimized_instructions <= 25

    def test_reproducer_passes_once_bug_is_gone(self, selftest):
        """run_selftest restores the real steering before returning,
        so its emitted reproducer -- which asserts the differential
        checks *pass* -- must succeed against the healthy simulator."""
        namespace = {}
        exec(compile(
            selftest.reproducer.read_text(encoding="utf-8"),
            str(selftest.reproducer), "exec",
        ), namespace)
        namespace["test_reproducer"]()  # must not raise

    def test_reproducer_records_replay_recipe(self, selftest):
        text = selftest.reproducer.read_text(encoding="utf-8")
        assert "--case-seed" in text
        assert "--fifo-only" in text


class TestPlantedPortArbiterBug:
    """The second planted bug: a leaked read-port budget.

    The compiler's ``port_leak`` knob hoists the per-cycle port grant
    out of the cycle loop; the compiled runner's no-forward-progress
    guard turns the resulting deadlock into a failure string, and the
    minimizer shrinks it like any other.
    """

    @pytest.fixture(scope="class")
    def selftest(self, tmp_path_factory):
        return run_port_selftest(
            cases=10, seed=1,
            repro_dir=tmp_path_factory.mktemp("port-repros"),
        )

    def test_bug_is_detected(self, selftest):
        assert selftest.detected
        assert not selftest.report.ok
        first = selftest.report.failures[0]
        assert any("forward progress" in f for f in first.failures)

    def test_reproducer_is_small(self, selftest):
        assert selftest.reproducer is not None
        assert selftest.minimized_instructions is not None
        assert selftest.minimized_instructions <= 25

    def test_only_ports_limited_shapes_were_sampled(self, selftest):
        assert set(selftest.report.profile.shape_counts) == {"ports_limited"}

    def test_reproducer_passes_once_bug_is_gone(self, selftest):
        """The compiler knob is restored before returning, so the
        emitted reproducer -- which reconstructs the ports_limited
        config, read-port budget included -- must pass against the
        healthy arbiter."""
        namespace = {}
        exec(compile(
            selftest.reproducer.read_text(encoding="utf-8"),
            str(selftest.reproducer), "exec",
        ), namespace)
        namespace["test_reproducer"]()  # must not raise

    def test_registry_is_restored(self, selftest):
        from repro.uarch import compile as compile_mod

        assert compile_mod._PLANTED_BUG is None
