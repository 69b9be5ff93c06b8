"""Tests for the delta-debugging minimizer and reproducer emission."""

from repro.core.machines import MACHINE_REGISTRY
from repro.uarch.config import (  # noqa: F401  (eval namespace below)
    CacheConfig,
    ClusterConfig,
    MachineConfig,
    PredictorConfig,
    SelectionPolicy,
    SteeringPolicy,
)
from repro.verify.minimize import (
    _is_removable,
    config_source,
    ddmin_lines,
    instruction_count,
    minimize_case,
    shrink_config,
    write_reproducer,
)

SOURCE = """\
.text
main:
    li r1, 10
    li r2, 20
    addu r3, r1, r2
    subu r4, r2, r1
    xor r5, r3, r4
    halt
"""


def test_removable_classification():
    assert _is_removable("    addu r3, r1, r2")
    assert not _is_removable("main:")
    assert not _is_removable(".text")
    assert not _is_removable("    halt")
    assert not _is_removable("")


def test_ddmin_isolates_the_culprit_line():
    still_fails = lambda text: "xor r5" in text  # noqa: E731
    small = ddmin_lines(SOURCE, still_fails)
    assert "xor r5" in small
    # Every other instruction was removed; pinned lines remain.
    assert "addu r3" not in small and "li r1" not in small
    assert "main:" in small and small.rstrip().endswith("halt")
    assert instruction_count(small) == 2  # xor + halt


def test_ddmin_keeps_everything_when_all_lines_needed():
    lines_needed = ("li r1", "li r2", "addu r3")
    still_fails = lambda text: all(s in text for s in lines_needed)  # noqa: E731
    small = ddmin_lines(SOURCE, still_fails)
    for needed in lines_needed:
        assert needed in small


def test_shrink_config_moves_toward_baseline():
    # An 8-entry window lets max_in_flight shrink all the way to 8
    # (the in-flight limit must cover the buffer capacity).
    config = MACHINE_REGISTRY["baseline"](
        window_size=8, fetch_width=8, issue_width=8, max_in_flight=128
    )
    always = lambda text, candidate: True  # noqa: E731
    small = shrink_config(SOURCE, config, always)
    assert small.fetch_width == 1
    assert small.issue_width == 1
    assert small.max_in_flight == 8


def test_shrink_config_respects_predicate():
    config = MACHINE_REGISTRY["baseline"](issue_width=8)
    keep_wide = lambda text, candidate: candidate.issue_width == 8  # noqa: E731
    small = shrink_config(SOURCE, config, keep_wide)
    assert small.issue_width == 8


def test_shrink_config_drops_second_cluster_when_allowed():
    config = MACHINE_REGISTRY["clustered_windows"]()
    assert len(config.clusters) == 2
    always = lambda text, candidate: True  # noqa: E731
    small = shrink_config(SOURCE, config, always)
    assert len(small.clusters) == 1


def test_shrink_config_drops_load_tracking_and_port_budget():
    # Each choice is one field, so a one-field shrink can drop it.
    config = MACHINE_REGISTRY["ports_limited"](load_delay_tracking=True)
    always = lambda text, candidate: True  # noqa: E731
    small = shrink_config(SOURCE, config, always)
    assert not small.load_delay_tracking
    assert small.regfile_read_ports == 0


def test_minimize_case_shrinks_both_halves():
    config = MACHINE_REGISTRY["baseline"](fetch_width=8)
    still_fails = lambda text, candidate: "xor r5" in text  # noqa: E731
    small_source, small_config = minimize_case(SOURCE, config, still_fails)
    assert instruction_count(small_source) == 2
    assert small_config.fetch_width == 1


def test_config_source_round_trips_every_shape():
    for shape, factory in sorted(MACHINE_REGISTRY.items()):
        config = factory()
        rebuilt = eval(config_source(config))  # noqa: S307 (test-only)
        assert rebuilt == config, shape


def test_write_reproducer_emits_standalone_test(tmp_path):
    config = MACHINE_REGISTRY["dependence"]()
    path = write_reproducer(
        tmp_path, case_id=4, seed=12345, summary="stats diverge",
        source=SOURCE, config=config, fifo_only=True,
    )
    assert path.name == "test_case_12345_4.py"
    text = path.read_text(encoding="utf-8")
    assert "stats diverge" in text
    assert "--case-seed 12345 --fifo-only" in text
    assert "def test_reproducer():" in text
    compile(text, str(path), "exec")  # syntactically valid python
