"""A dataflow lower bound on every registry machine's cycle count.

However a machine schedules, an instruction cannot issue before each
of its producers has completed and woken it: its producer's issue
cycle plus the producer's latency plus the wakeup-select bubble.  The
smallest latency a machine ever gives an instruction is the load hit
time for a load and the functional-unit latency for anything else.
So the longest chain of producer links, each weighted by that minimum,
bounds the cycle count from below whatever the predictor, the cache,
the steering or the buffers do.  Fetch adds one more floor: at most
``fetch_width`` instructions enter per cycle, so instruction ``s``
cannot issue before cycle ``s // fetch_width``.

The links come from :func:`~repro.uarch.depend.dependence_info`, the
walk over the trace's records, not from the ``producers`` column the
compiled runner reads.  Over these 70 cells the tightest cycles/bound
ratio is 2.33 (``baseline`` on m88ksim at 2,000 instructions); the
producer chains alone give 4.12 (``baseline`` on gcc).
"""

from __future__ import annotations

import pytest

from repro.core.machines import MACHINE_REGISTRY
from repro.isa.trace import NO_PRODUCER
from repro.uarch.config import MachineConfig
from repro.uarch.depend import dependence_info
from repro.uarch.pipeline import simulate
from repro.workloads import WORKLOAD_NAMES, get_trace

N = 2_000


def dataflow_bound(config: MachineConfig, trace) -> int:
    """The cycle by which the longest weighted producer chain can
    complete at the earliest."""
    bubble = config.wakeup_select_stages - 1
    load, other = config.cache.hit_cycles, config.fu_latency
    finish: list[int] = []
    for seq, (producers, is_load) in enumerate(
            zip(dependence_info(trace), trace.is_load)):
        start = max([seq // config.fetch_width]
                    + [finish[p] + bubble for p in producers
                       if p != NO_PRODUCER])
        finish.append(start + (load if is_load else other))
    return max(finish, default=0)


@pytest.mark.parametrize("machine", sorted(MACHINE_REGISTRY))
def test_cycles_reach_the_dataflow_bound(machine):
    config = MACHINE_REGISTRY[machine]()
    for workload in WORKLOAD_NAMES:
        trace = get_trace(workload, N)
        cycles = simulate(config, trace).cycles
        bound = dataflow_bound(config, trace)
        assert bound > 0
        assert cycles >= bound, (
            f"{machine}/{workload}: {cycles} cycles, below the dataflow "
            f"bound of {bound}")
