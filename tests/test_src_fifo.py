"""Tests for the SRC_FIFO table, including the equivalence property:
the table makes exactly the decisions the pipeline's per-producer map
makes, on real workloads."""

import pytest

from repro.core.machines import clustered_dependence_8way, dependence_based_8way
from repro.obs.events import EventKind, EventTracer
from repro.uarch.depend import NO_PRODUCER, dependence_info
from repro.uarch.pipeline import PipelineSimulator
from repro.uarch.src_fifo import SrcFifoEntry, SrcFifoTable
from repro.workloads import get_trace


class TestTableSemantics:
    def test_empty_at_reset(self):
        table = SrcFifoTable()
        assert table.valid_count() == 0
        assert table.lookup(5) is None

    def test_dispatch_records_writer(self):
        table = SrcFifoTable()
        table.on_dispatch(seq=10, dest=3, cluster=0, fifo=2)
        entry = table.lookup(3)
        assert entry == SrcFifoEntry(cluster=0, fifo=2, writer_seq=10)

    def test_issue_invalidates(self):
        table = SrcFifoTable()
        table.on_dispatch(seq=10, dest=3, cluster=0, fifo=2)
        table.on_issue(seq=10, dest=3)
        assert table.lookup(3) is None

    def test_younger_writer_overwrites(self):
        table = SrcFifoTable()
        table.on_dispatch(seq=10, dest=3, cluster=0, fifo=2)
        table.on_dispatch(seq=11, dest=3, cluster=1, fifo=0)
        assert table.lookup(3).writer_seq == 11

    def test_stale_issue_does_not_invalidate_younger_entry(self):
        # The old writer issuing must not clear the new writer's entry.
        table = SrcFifoTable()
        table.on_dispatch(seq=10, dest=3, cluster=0, fifo=2)
        table.on_dispatch(seq=11, dest=3, cluster=1, fifo=0)
        table.on_issue(seq=10, dest=3)
        assert table.lookup(3).writer_seq == 11

    def test_window_placement_clears_entry(self):
        table = SrcFifoTable()
        table.on_dispatch(seq=10, dest=3, cluster=0, fifo=2)
        table.on_dispatch(seq=11, dest=3, cluster=0, fifo=None)
        assert table.lookup(3) is None

    def test_none_dest_is_noop(self):
        table = SrcFifoTable()
        table.on_dispatch(seq=1, dest=None, cluster=0, fifo=0)
        table.on_issue(seq=1, dest=None)
        assert table.valid_count() == 0

    def test_range_checks(self):
        table = SrcFifoTable(logical_registers=8)
        with pytest.raises(ValueError):
            table.lookup(8)
        with pytest.raises(ValueError):
            table.on_dispatch(seq=0, dest=9, cluster=0, fifo=0)
        with pytest.raises(ValueError):
            SrcFifoTable(logical_registers=0)

    def test_snapshot(self):
        table = SrcFifoTable()
        table.on_dispatch(seq=1, dest=2, cluster=0, fifo=1)
        table.on_dispatch(seq=2, dest=5, cluster=1, fifo=3)
        assert set(table.snapshot()) == {2, 5}


@pytest.mark.parametrize(
    "factory", [dependence_based_8way, clustered_dependence_8way],
    ids=["single-cluster", "two-cluster"],
)
@pytest.mark.parametrize("workload", ["compress", "vortex"])
def test_equivalence_with_pipeline_bookkeeping(factory, workload):
    """Property (Section 5): at every dispatch, SRC_FIFO(src) agrees
    with the pipeline's producer-resident-in-FIFO map -- so the table
    is a faithful implementation of the steering query.  The map is
    replayed from the compiled runner's own STEER (enter a FIFO) and
    ISSUE (leave it) events, in the order the pipeline acted."""
    trace = get_trace(workload, 1_500)
    producers = dependence_info(trace)
    tracer = EventTracer(capacity=None)
    simulator = PipelineSimulator(factory(), trace, tracer=tracer)
    simulator.run()
    table = SrcFifoTable()
    fifo_of: dict[int, tuple[int, int]] = {}
    mismatches = []
    checks = 0
    for event in tracer.events:
        seq = event.seq
        inst = simulator.insts[seq]
        if event.kind is EventKind.STEER:
            # Check the steering query BEFORE this instruction updates
            # the table (the hardware reads SRC_FIFO during rename).
            for src, producer in zip(inst.srcs, producers[seq]):
                entry = table.lookup(src)
                expected = (
                    fifo_of.get(producer) if producer != NO_PRODUCER
                    else None
                )
                got = (entry.cluster, entry.fifo) if entry is not None else None
                checks += 1
                if got != expected:
                    mismatches.append((seq, src, got, expected))
            fifo = int(event.detail.split()[0][len("fifo="):])
            fifo_of[seq] = (event.cluster, fifo)
            table.on_dispatch(seq, inst.dest, event.cluster, fifo)
        elif event.kind is EventKind.ISSUE:
            fifo_of.pop(seq, None)
            table.on_issue(seq, inst.dest)
    assert not fifo_of and not any(simulator.fifo_of)
    assert checks > 500
    assert not mismatches, mismatches[:5]
