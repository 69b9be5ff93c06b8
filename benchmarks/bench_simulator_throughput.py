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

Every measured row -- the median of its benchmark rounds -- must
clear its floor in ``BENCH_simulator.json``'s
``recorded.floors``: half the recorded interleaved median for each
compiled row, so a 2x regression of any one shape fails, and fixed
floors for the reference model and the emulator.
:func:`conftest.assert_clears_floors` applies them through
:func:`repro.obs.regression.check_bench`, the same gate
``repro bench --check`` runs.  The tracing-disabled overhead guard
keeps the untraced runner (which carries no probe code at all) at or
above baseline's compiled floor; it takes no ``benchmark`` fixture,
so ``--benchmark-only`` skips it and CI runs it in a separate step.

Measured rates are folded into ``BENCH_simulator.json`` (repo root)
by the ``sim_bench_record`` fixture, next to the checked-in
before/after record of the optimization passes.
"""

from conftest import assert_clears_floors

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
from repro.uarch.pipeline import simulate
from repro.workloads import build_program, get_trace

TRACE_LENGTH = 8_000

#: Interleaved runs per side in the tracing-overhead guard; each side
#: is timed as its fastest run, so one slow phase of the host cannot
#: fail the guard on its own.
OVERHEAD_ROUNDS = 3


def _median_rate(benchmark):
    """Instructions per second at the median of ``benchmark``'s rounds.

    The floors sit at half a recorded interleaved *median*, so the
    gate compares a median with them; a mean moves with every slow
    phase of the host.
    """
    return TRACE_LENGTH / benchmark.stats.stats.median


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
    rate = _median_rate(benchmark)
    row = f"{label}/gcc (compiled)"
    sim_bench_record(row, rate)
    assert_clears_floors("simulator", {row: rate})
    return stats, rate


def test_throughput_compiled_baseline_machine(
    benchmark, bench_report, sim_bench_record
):
    """The compiled pipeline on the paper's baseline (byte-identical
    stats pinned by tests/test_fast_reference_equivalence.py)."""
    stats, rate = _compiled_rate(
        benchmark, baseline_8way(), "baseline_8way", sim_bench_record
    )
    bench_report(
        "Simulator throughput: baseline machine (compiled pipeline)",
        f"  {rate:,.0f} simulated instructions/second "
        f"(IPC {stats.ipc:.2f} on gcc)",
    )


def test_throughput_compiled_clustered_fifo_machine(
    benchmark, bench_report, sim_bench_record
):
    """The paper's own proposal: two clusters of FIFOs, dependence
    steering generated inline, inter-cluster bypass."""
    stats, rate = _compiled_rate(
        benchmark, clustered_dependence_8way(), "clustered_dependence_8way",
        sim_bench_record,
    )
    bench_report(
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
    hold is a branch of the generated loop, so it is held to a
    compiled floor like every other shape."""
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
    rate = _median_rate(benchmark)
    row = "baseline_8way/gcc (reference)"
    sim_bench_record(row, rate)
    assert_clears_floors("simulator", {row: rate})


def test_throughput_functional_emulator(benchmark, sim_bench_record):
    program = build_program("gcc")

    def run():
        return Emulator(program).run(TRACE_LENGTH)

    trace = benchmark(run)
    assert len(trace) == TRACE_LENGTH
    rate = _median_rate(benchmark)
    row = "emulator/gcc (functional)"
    sim_bench_record(row, rate)
    assert_clears_floors("simulator", {row: rate})


def test_stage_profile(benchmark, bench_report, metrics_record):
    """Where does simulation wall-clock go, stage by stage?"""
    trace = get_trace("gcc", TRACE_LENGTH)

    def profiled():
        return profile_simulation(baseline_8way(), trace)

    stats, report = benchmark.pedantic(profiled, rounds=1, iterations=1)
    stats.validate()
    metrics_record(stats)
    bench_report("Simulator host profile (per-stage Python time)",
                 report.format_report())
    assert report.cycles == stats.cycles
    assert sum(report.stage_seconds.values()) <= report.wall_seconds


def test_tracing_disabled_overhead_guard(bench_report):
    """Tracing off must not cost throughput: stay at/above baseline's
    compiled floor, and full tracing must stay within a sane
    multiple."""
    trace = get_trace("gcc", TRACE_LENGTH)
    config = baseline_8way()
    simulate(config, trace)  # warm caches before timing
    plain_times, traced_times = [], []
    for _ in range(OVERHEAD_ROUNDS):
        _, seconds = profile_run(simulate, config, trace)
        plain_times.append(seconds)
        tracer = EventTracer()
        _, seconds = profile_run(simulate, config, trace, tracer=tracer)
        traced_times.append(seconds)
    plain_seconds = min(plain_times)
    traced_seconds = min(traced_times)
    plain_rate = TRACE_LENGTH / plain_seconds
    traced_rate = TRACE_LENGTH / traced_seconds
    bench_report(
        "Event-tracing overhead",
        f"  tracing off: {plain_rate:,.0f} insts/s; "
        f"tracing on: {traced_rate:,.0f} insts/s "
        f"({traced_seconds / plain_seconds:.2f}x, "
        f"{tracer.emitted:,} events)",
    )
    # The disabled path must clear baseline's compiled floor outright
    # (the untraced runner contains no probe code).
    assert_clears_floors("simulator",
                         {"baseline_8way/gcc (compiled)": plain_rate})
    # Full event emission is allowed to cost, but not explode.
    assert traced_seconds < 10 * plain_seconds
