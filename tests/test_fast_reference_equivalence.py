"""The compiled pipeline is pinned to the oracle.

Two models, one contract.  The per-config compiled pipeline
(``repro.uarch.compile``, what ``PipelineSimulator.run`` and
``simulate(..., mode="compiled")`` execute) must produce
**byte-identical** ``SimStats`` to ``repro.uarch.pipeline_reference``
-- the readable model kept as the oracle -- on every registered
machine shape.  These tests sweep every shape times every workload
and compare the full serialised stats dict, not just IPC: any
divergence in stall attribution, histograms, occupancy, or bypass
counts fails.  Per-instruction timing arrays and event timelines are
compared too.

The cycle-skipping machinery gets its own checks: skipping must not
change the event-tracer timeline (idle cycles emit no events, so the
streams are comparable element by element) and must replicate
per-cause stall totals exactly.
"""

import pytest

from repro.core.machines import (
    baseline_8way,
    clustered_dependence_8way,
    ports_limited_8way,
)
from repro.obs import EventTracer
from repro.uarch.compile import run_compiled
from repro.uarch.pipeline import PipelineSimulator, simulate
from repro.uarch.pipeline_reference import (
    ReferencePipelineSimulator,
    simulate_reference,
)
from repro.workloads import get_trace
from tests.machines import ALL_MACHINES, subset

#: Reduced budget: 10 machines x 7 workloads stay fast while covering
#: every steering/selection/cluster/strategy shape.
LENGTH = 1_200

MACHINES = ALL_MACHINES

#: The two strategy shapes (pluggable scheduler / ports-limited
#: regfile).  The reference model gained plain forms of their hooks
#: after the classic shapes, so they keep a column of their own.
STRATEGY_MACHINES = subset("load_tracking", "ports_limited")

WORKLOADS = ("compress", "gcc", "go", "li", "m88ksim", "perl", "vortex")

#: The per-instruction lifecycle arrays both models fill.
TIMING_ARRAYS = (
    "fetch_cycle", "dispatch_cycle", "issue_cycle", "complete_cycle",
    "commit_cycle", "cluster_of",
)


def _diff(left: dict, right: dict) -> str:
    return str({k: (left.get(k), right.get(k))
                for k in left.keys() | right.keys()
                if left.get(k) != right.get(k)})


def _timeline(tracer):
    return [
        (e.cycle, e.kind, e.seq, e.cluster, e.detail, e.dur)
        for e in tracer.events
    ]


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_stats_byte_identical(machine, workload):
    """Full SimStats dict equality, per-instruction timings and event
    timelines, compiled (traced and untraced) vs reference."""
    trace = get_trace(workload, LENGTH)
    ref_tracer = EventTracer(capacity=None)
    reference = ReferencePipelineSimulator(
        MACHINES[machine](), trace, tracer=ref_tracer
    )
    expected = reference.run().to_dict()
    for traced in (False, True):
        tracer = EventTracer(capacity=None) if traced else None
        compiled = PipelineSimulator(MACHINES[machine](), trace, tracer=tracer)
        got = compiled.run().to_dict()
        assert got == expected, (
            f"compiled simulator (traced={traced}) diverged from "
            f"reference on {machine}/{workload}: " + _diff(got, expected)
        )
        for name in TIMING_ARRAYS:
            assert getattr(compiled, name) == getattr(reference, name), name
        if traced:
            assert _timeline(tracer) == _timeline(ref_tracer)


@pytest.mark.parametrize("machine", sorted(STRATEGY_MACHINES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_compiled_matches_fast_beyond_reference(machine, workload):
    """The strategy shapes' codegen branches (the load-delay-tracking
    hold, the read-port budget) emit the reference's exact event
    timeline, not just its totals."""
    trace = get_trace(workload, LENGTH)
    factory = STRATEGY_MACHINES[machine]
    ref_tracer = EventTracer(capacity=None)
    compiled_tracer = EventTracer(capacity=None)
    reference = simulate_reference(factory(), trace, tracer=ref_tracer)
    compiled = simulate(factory(), trace, tracer=compiled_tracer)
    assert compiled.to_dict() == reference.to_dict(), (
        f"compiled simulator diverged from reference on "
        f"{machine}/{workload}: "
        + _diff(compiled.to_dict(), reference.to_dict())
    )
    assert _timeline(compiled_tracer) == _timeline(ref_tracer)


def test_simulate_reference_mode_escape_hatch():
    """``simulate(..., mode="reference")`` routes to the reference."""
    trace = get_trace("gcc", LENGTH)
    via_mode = simulate(baseline_8way(), trace, mode="reference")
    direct = simulate_reference(baseline_8way(), trace)
    assert via_mode.to_dict() == direct.to_dict()


def test_cycle_skip_off_matches_on():
    """Skipping is a pure fast-forward: a skipping compiled run equals
    the reference, which steps every cycle."""
    trace = get_trace("li", LENGTH)
    skipping = PipelineSimulator(baseline_8way(), trace)
    stepping = ReferencePipelineSimulator(baseline_8way(), trace)
    assert skipping.run().to_dict() == stepping.run().to_dict()
    assert skipping.skipped_cycles > 0, (
        "expected the skipper to engage on this workload; if machine "
        "defaults changed, pick a cell with idle stretches"
    )


def test_cycle_skip_engages_on_long_stalls():
    """A tiny window forces backpressure; skipped cycles still count
    in the total and the stall partition stays valid."""
    trace = get_trace("compress", LENGTH)
    simulator = PipelineSimulator(baseline_8way(window_size=4), trace)
    stats = simulator.run()
    stats.validate()
    reference = ReferencePipelineSimulator(
        baseline_8way(window_size=4), trace
    ).run()
    assert stats.to_dict() == reference.to_dict()


class TestTracedEquivalence:
    """Cycle skipping under tracing (tracer timelines)."""

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_event_timeline_identical(self, machine):
        trace = get_trace("li", LENGTH)
        ref_tracer = EventTracer(capacity=None)
        compiled_tracer = EventTracer(capacity=None)
        ref_stats = ReferencePipelineSimulator(
            MACHINES[machine](), trace, tracer=ref_tracer
        ).run()
        compiled_stats = simulate(
            MACHINES[machine](), trace, mode="compiled",
            tracer=compiled_tracer,
        )
        assert compiled_stats.to_dict() == ref_stats.to_dict()
        assert _timeline(compiled_tracer) == _timeline(ref_tracer)

    def test_compiled_timeline_on_ports_limited(self):
        """A traced, cycle-skipping run of a strategy shape."""
        trace = get_trace("li", LENGTH)
        ref_tracer = EventTracer(capacity=None)
        compiled_tracer = EventTracer(capacity=None)
        ref_stats = simulate_reference(
            ports_limited_8way(), trace, tracer=ref_tracer
        )
        compiled_stats = simulate(
            ports_limited_8way(), trace, mode="compiled",
            tracer=compiled_tracer,
        )
        assert compiled_stats.to_dict() == ref_stats.to_dict()
        assert _timeline(compiled_tracer) == _timeline(ref_tracer)

    def test_per_cause_stall_totals_identical(self):
        trace = get_trace("go", LENGTH)
        compiled = PipelineSimulator(baseline_8way(), trace)
        compiled_stats = compiled.run()
        ref_stats = ReferencePipelineSimulator(baseline_8way(), trace).run()
        assert compiled_stats.stall_cycles == ref_stats.stall_cycles
        assert compiled_stats.dispatch_stalls == ref_stats.dispatch_stalls
        assert compiled_stats.issue_histogram == ref_stats.issue_histogram
        # The skipped cycles are inside the total, not on top of it.
        assert compiled_stats.cycles == ref_stats.cycles
        assert compiled.skipped_cycles > 0


def test_compiled_backpressure_shape():
    """A tiny window forces backpressure inside the compiled step
    function; the stall partition must still match the reference."""
    trace = get_trace("compress", LENGTH)
    config = baseline_8way(window_size=4)
    stats = run_compiled(PipelineSimulator(config, trace))
    stats.validate()
    reference = simulate_reference(baseline_8way(window_size=4), trace)
    assert stats.to_dict() == reference.to_dict()


def test_compiled_per_instruction_timings_identical():
    """The compiled pipeline fills the same per-instruction lifecycle
    arrays the reference does, element for element."""
    trace = get_trace("gcc", LENGTH)
    compiled = PipelineSimulator(ports_limited_8way(), trace)
    run_compiled(compiled)
    reference = ReferencePipelineSimulator(ports_limited_8way(), trace)
    reference.run()
    for name in TIMING_ARRAYS:
        assert getattr(compiled, name) == getattr(reference, name), name


def test_per_instruction_timings_identical():
    """Not just aggregates: per-instruction lifecycle cycles match on
    the paper's clustered dependence-based machine."""
    trace = get_trace("gcc", LENGTH)
    compiled = PipelineSimulator(clustered_dependence_8way(), trace)
    compiled.run()
    reference = ReferencePipelineSimulator(clustered_dependence_8way(), trace)
    reference.run()
    for name in TIMING_ARRAYS:
        assert getattr(compiled, name) == getattr(reference, name), name
