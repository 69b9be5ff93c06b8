"""The compiled runner's branch statistics against a standalone gshare.

The generated runners inline the predictor, so the equivalence matrix
compares them only with the reference pipeline's use of
:class:`~repro.uarch.predictor.GshareBranchPredictor`.  This check
needs no cycle model at all: trace-driven fetch consults the predictor
once per committed conditional branch, in program order, so replaying
the trace's conditional branches through a fresh predictor must give
exactly the compiled run's ``branch_lookups`` and ``mispredicts``.
"""

import pytest

from repro.uarch.pipeline import simulate
from repro.uarch.predictor import GshareBranchPredictor
from repro.workloads import get_trace
from tests.machines import ALL_MACHINES

#: Branch-heavy kernels, the coin-flip branch scenario and a loop
#: kernel with well-predicted branches.
WORKLOADS = ("gcc", "go", "li", "vortex", "zoo_br_coin", "dct")

LENGTH = 4_000


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("machine", sorted(ALL_MACHINES))
def test_replayed_predictor_matches_the_compiled_run(machine, workload):
    config = ALL_MACHINES[machine]()
    trace = get_trace(workload, LENGTH)
    stats = simulate(config, trace)
    assert stats.committed == LENGTH
    predictor = GshareBranchPredictor(config.predictor)
    mispredicts = sum(
        predictor.predict_and_update(inst.pc, inst.taken) != inst.taken
        for inst in trace if inst.is_branch
    )
    assert predictor.lookups > 0
    assert (stats.branch_lookups, stats.mispredicts) == (predictor.lookups, mispredicts)
