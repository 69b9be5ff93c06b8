"""Figure 12: the paper's worked steering example, replayed exactly.

Figure 12 steers a 15-instruction SPEC code segment into four FIFOs,
four instructions per cycle, with four-wide issue, and shows the
resulting issue schedule:

    cycle 1: instructions 0, 1, 3
    cycle 2: instructions 2, 4, 6
    cycle 3: instructions 5, 10
    cycle 4: instructions 7, 11, 12

We assemble the same code segment (the paper's register numbers kept
verbatim; ``repro.core.experiments.FIGURE12_SOURCE``), run it through
the dependence-based machine configured as in the figure, and check
both the FIFO chain structure the heuristic builds and the issue
schedule.
"""

import pytest

from repro.core.experiments import FIGURE12_SOURCE, figure12_machine
from repro.isa import assemble, run_to_trace
from repro.obs.events import EventKind, EventTracer
from repro.uarch.pipeline import PipelineSimulator


@pytest.fixture(scope="module")
def simulated():
    trace = run_to_trace(assemble(FIGURE12_SOURCE))
    assert len(trace) == 15
    tracer = EventTracer(capacity=None)
    simulator = PipelineSimulator(figure12_machine(), trace, tracer=tracer)
    simulator.run()
    # Each steering decision: its cluster, and the FIFO named first in
    # the detail ("fifo=<index> <rule>").
    placements: dict[int, tuple[int, int]] = {}
    for event in tracer.events:
        if event.kind is EventKind.STEER:
            fifo = int(event.detail.split()[0][len("fifo="):])
            placements[event.seq] = (event.cluster, fifo)
    return simulator, placements


class TestChainStructure:
    """The heuristic must group the figure's dependence chains."""

    @pytest.mark.parametrize(
        "consumer,producer",
        [
            (2, 0),    # beq behind the addu producing $18
            (5, 4),    # xor behind the sllv producing $2
            (7, 5),    # sll behind the xor producing $16
            (8, 7),
            (9, 8),
            (11, 10),  # addu behind the sllv producing $4
            (13, 12),  # sw behind the addiu producing $3
            (14, 9),   # final beq behind the lw producing $2
        ],
    )
    def test_consumer_chains_behind_producer(self, simulated, consumer, producer):
        _sim, placements = simulated
        assert placements[consumer] == placements[producer]

    def test_chain_heads_get_fresh_fifos(self, simulated):
        # 0, 1, 3, 6 start chains in the figure; they must not share a
        # FIFO with one another at steering time (0/1/3 are steered in
        # the same cycle, 6 while 1 and 3 may still be buffered).
        _sim, placements = simulated
        heads = [placements[seq] for seq in (0, 1, 3)]
        assert len(set(heads)) == 3

    def test_single_cluster(self, simulated):
        _sim, placements = simulated
        assert all(cluster == 0 for cluster, _fifo in placements.values())


class TestIssueSchedule:
    """The figure's cycle-by-cycle issue groups, reproduced."""

    EXPECTED_GROUPS = [(0, 1, 3), (2, 4, 6), (5, 10), (7, 11, 12)]

    def test_issue_groups_match_figure(self, simulated):
        simulator, _placements = simulated
        cycles = simulator.issue_cycle
        first = cycles[0]
        for offset, group in enumerate(self.EXPECTED_GROUPS):
            for seq in group:
                assert cycles[seq] == first + offset, (
                    f"inst {seq} issued at relative cycle "
                    f"{cycles[seq] - first}, figure says {offset}"
                )

    def test_no_issue_exceeds_width(self, simulated):
        simulator, _placements = simulated
        per_cycle: dict[int, int] = {}
        for seq in range(15):
            cycle = simulator.issue_cycle[seq]
            per_cycle[cycle] = per_cycle.get(cycle, 0) + 1
        assert max(per_cycle.values()) <= 4

    def test_all_committed(self, simulated):
        simulator, _placements = simulated
        assert simulator.stats.committed == 15
