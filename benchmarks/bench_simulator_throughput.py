"""Engineering benchmark: simulator throughput and its profile.

Not a paper result -- this times the reproduction's own machinery so
throughput regressions in the pipeline model are caught.  It reports
simulated instructions per second of the compiled pipeline (the one
production cycle loop, ``repro.uarch.compile``) on the cheapest
machine, the paper's clustered dependence-based machine and the two
strategy shapes, the frozen reference model's rate, the functional
emulator's execution rate, a per-stage host-time profile (via
``repro.obs.profiling``) showing where simulation time itself goes,
and the event-tracing overhead.

``COMPILED_MIN_RATE`` is the floor every compiled row must clear:
twice ``MIN_RATE``, the floor of the hand-inlined interpreter the
compiled pipeline replaced, so a compiled path that silently degrades
to interpreter speed fails.  On top of it each compiled row has its
own floor in ``BENCH_simulator.json`` (``compiled_row_floors``: half
the row's recorded interleaved median), so a 2x regression of any one
shape fails; both are applied by
:func:`repro.obs.regression.check_simulator_bench`, the same gate
``repro bench --check`` runs.  ``SEED_MIN_RATE`` holds the reference
model.  The tracing-disabled overhead guard keeps the untraced
runner (which carries no probe code at all) at or above the compiled
floor.

Measured rates are folded into ``BENCH_simulator.json`` (repo root)
by the ``sim_bench_record`` fixture, next to the checked-in
before/after record of the optimization passes.
"""

from pathlib import Path

from repro.core.machines import (
    baseline_8way,
    clustered_dependence_8way,
    clustered_random_8way,
    dependence_based_8way,
    load_tracking_8way,
    ports_limited_8way,
)
from repro.isa import Emulator
from repro.obs import EventTracer, profile_simulation
from repro.obs.profiling import profile_run
from repro.obs.regression import (
    check_simulator_bench,
    format_findings,
    load_bench,
)
from repro.uarch.pipeline import simulate
from repro.workloads import build_program, get_trace

TRACE_LENGTH = 8_000

#: The checked-in record whose ``recorded`` block holds the floors.
BENCH_SIMULATOR = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"

#: The hand-inlined interpreter's floor (baseline 8-way, gcc).  The
#: seed revision sustained ~66k and asserted 10k; the interpreter
#: sustained ~135k.  Kept because the compiled floor is defined from
#: it and the optimization log pins it.
MIN_RATE = 30_000

#: The seed revision's floor, now held by the frozen reference model.
SEED_MIN_RATE = 10_000

#: Floor for every compiled row: 2x the interpreter floor (the
#: compiled pipeline measures >2.5x the interpreter it replaced; see
#: BENCH_simulator.json's "compiled" records).
COMPILED_MIN_RATE = 60_000


def _compiled_rate(benchmark, config, label, sim_bench_record):
    """Time steady-state compiled runs of ``config`` on gcc.

    One untimed run up front compiles the runner variant the timed
    runs use (``load_tracking`` opts out of cycle skipping, so a bare
    ``compiled_runner(config)`` would warm the wrong variant), so the
    benchmark times execution, as campaign/frontier/service workers
    see it.
    """
    trace = get_trace("gcc", TRACE_LENGTH)
    simulate(config, trace)  # warm the compile cache
    stats = benchmark(simulate, config, trace, mode="compiled")
    rate = TRACE_LENGTH / benchmark.stats.stats.mean
    row = f"{label}/gcc (compiled)"
    sim_bench_record(row, rate)
    assert rate > COMPILED_MIN_RATE
    recorded = load_bench(BENCH_SIMULATOR).get("recorded", {})
    findings = check_simulator_bench(
        {"measured": {row: rate}, "recorded": recorded}
    )
    assert not findings, format_findings(findings)
    return stats, rate


def test_throughput_compiled_baseline_machine(
    benchmark, paper_report, sim_bench_record
):
    """The compiled pipeline on the paper's baseline (byte-identical
    stats pinned by tests/test_fast_reference_equivalence.py)."""
    stats, rate = _compiled_rate(
        benchmark, baseline_8way(), "baseline_8way", sim_bench_record
    )
    paper_report(
        "Simulator throughput: baseline machine (compiled pipeline)",
        f"  {rate:,.0f} simulated instructions/second "
        f"(IPC {stats.ipc:.2f} on gcc)",
    )


def test_throughput_compiled_clustered_fifo_machine(
    benchmark, paper_report, sim_bench_record
):
    """The paper's own proposal: two clusters of FIFOs, dependence
    steering generated inline, inter-cluster bypass."""
    stats, rate = _compiled_rate(
        benchmark, clustered_dependence_8way(), "clustered_dependence_8way",
        sim_bench_record,
    )
    paper_report(
        "Simulator throughput: clustered dependence-based machine "
        "(compiled pipeline)",
        f"  {rate:,.0f} simulated instructions/second "
        f"(IPC {stats.ipc:.2f} on gcc)",
    )


def test_throughput_compiled_dependence_machine(benchmark, sim_bench_record):
    """Figure 13's dependence-based machine: one cluster of FIFOs,
    the Section 5.1 steering heuristic generated inline."""
    _compiled_rate(
        benchmark, dependence_based_8way(), "dependence_based_8way",
        sim_bench_record,
    )


def test_throughput_compiled_random_machine(benchmark, sim_bench_record):
    """Random steering (Section 5.6.3): the generator's draws are
    generated inline, one per placement attempt."""
    _compiled_rate(
        benchmark, clustered_random_8way(), "clustered_random_8way",
        sim_bench_record,
    )


def test_throughput_compiled_load_tracking_machine(
    benchmark, sim_bench_record
):
    """The load-delay-tracking scheduler opts out of cycle skipping
    (held candidates expire at cycles no completion event marks); its
    hold is a branch of the generated loop, so the compiled floor
    still applies."""
    _compiled_rate(
        benchmark, load_tracking_8way(), "load_tracking_8way",
        sim_bench_record,
    )


def test_throughput_compiled_ports_limited_machine(
    benchmark, sim_bench_record
):
    """Port-budget checks are folded in, not interpreted."""
    _compiled_rate(
        benchmark, ports_limited_8way(), "ports_limited_8way",
        sim_bench_record,
    )


def test_throughput_reference_model(benchmark, sim_bench_record):
    """The frozen reference stays runnable (it is the equivalence
    oracle) at the seed floor."""
    trace = get_trace("gcc", TRACE_LENGTH)
    benchmark(simulate, baseline_8way(), trace, mode="reference")
    rate = TRACE_LENGTH / benchmark.stats.stats.mean
    sim_bench_record("baseline_8way/gcc (reference)", rate)
    assert rate > SEED_MIN_RATE


def test_throughput_functional_emulator(benchmark):
    program = build_program("gcc")

    def run():
        return Emulator(program).run(TRACE_LENGTH)

    trace = benchmark(run)
    assert len(trace) == TRACE_LENGTH
    rate = TRACE_LENGTH / benchmark.stats.stats.mean
    assert rate > 50_000


def test_stage_profile(benchmark, paper_report, metrics_record):
    """Where does simulation wall-clock go, stage by stage?"""
    trace = get_trace("gcc", TRACE_LENGTH)

    def profiled():
        return profile_simulation(baseline_8way(), trace)

    stats, report = benchmark.pedantic(profiled, rounds=1, iterations=1)
    stats.validate()
    metrics_record(stats)
    paper_report("Simulator host profile (per-stage Python time)",
                 report.format_report())
    assert report.cycles == stats.cycles
    assert sum(report.stage_seconds.values()) <= report.wall_seconds


def test_tracing_disabled_overhead_guard(paper_report):
    """Tracing off must not cost throughput: stay at/above the
    compiled floor, and full tracing must stay within a sane
    multiple."""
    trace = get_trace("gcc", TRACE_LENGTH)
    config = baseline_8way()
    simulate(config, trace)  # warm caches before timing
    _, plain_seconds = profile_run(simulate, config, trace)
    tracer = EventTracer()
    _, traced_seconds = profile_run(simulate, config, trace, tracer=tracer)
    plain_rate = TRACE_LENGTH / plain_seconds
    traced_rate = TRACE_LENGTH / traced_seconds
    paper_report(
        "Event-tracing overhead",
        f"  tracing off: {plain_rate:,.0f} insts/s; "
        f"tracing on: {traced_rate:,.0f} insts/s "
        f"({traced_seconds / plain_seconds:.2f}x, "
        f"{tracer.emitted:,} events)",
    )
    # The disabled path must clear the compiled floor outright (the
    # untraced runner contains no probe code).
    assert plain_rate > COMPILED_MIN_RATE
    # Full event emission is allowed to cost, but not explode.
    assert traced_seconds < 10 * plain_seconds
