"""The compiled runner's data-cache statistics against a standalone cache.

The generated runners inline the data cache, so the equivalence matrix
compares them only with the reference pipeline's use of
:class:`~repro.uarch.cache.SetAssociativeCache`.  Unlike the branch
predictor, the cache's counts depend on the schedule: the reference
touches the cache when a memory instruction issues (loads through
``load_latency``, stores through ``access``).  So replaying the
compiled run's loads and stores in its SELECT-event order -- exact
within a cycle, where ``(issue_cycle, seq)`` order is not -- through a
fresh cache must give exactly the run's ``cache_accesses`` and
``cache_misses``.
"""

import pytest

from repro.obs.events import EventKind, EventTracer
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.config import CacheConfig
from repro.uarch.pipeline import PipelineSimulator
from repro.workloads import get_trace
from tests.machines import ALL_MACHINES

#: (cache, workload) pairs.  The kernels fit in Table 3's 32 KB cache,
#: where the LRU order rarely decides a miss, so they run on a 1 KB
#: cache of the same shape; the cold-miss scenario overflows the
#: Table 3 cache itself.
CELLS = (
    ("table3", "zoo_mem_cold"),
    ("1kb", "compress"),
    ("1kb", "li"),
    ("1kb", "vortex"),
)

CACHES = {"table3": CacheConfig(), "1kb": CacheConfig(size_bytes=1024)}

LENGTH = 2_000


@pytest.mark.parametrize("cache, workload", CELLS)
@pytest.mark.parametrize("machine", sorted(ALL_MACHINES))
def test_replayed_cache_matches_the_compiled_run(machine, cache, workload):
    config = ALL_MACHINES[machine](cache=CACHES[cache])
    trace = get_trace(workload, LENGTH)
    tracer = EventTracer(capacity=None)
    stats = PipelineSimulator(config, trace, tracer=tracer).run()
    assert stats.committed == LENGTH
    replay = SetAssociativeCache(config.cache)
    for event in tracer.events:
        if event.kind is EventKind.SELECT:
            inst = trace.insts[event.seq]
            if inst.is_load:
                replay.load_latency(inst.mem_addr)
            elif inst.is_store:
                replay.access(inst.mem_addr)
    assert replay.misses > 0
    assert ((stats.cache_accesses, stats.cache_misses)
            == (replay.accesses, replay.misses))
