"""Load-test the design-space service: cold vs warm queries/sec.

The serving-tier claim is that the campaign cache turns design-space
queries into a hot path: the *first* request for a cell pays for a
simulation (cold), every later request is answered from cache on the
event loop (warm) at thousands of queries per second.

This bench measures both against a real listening server over real
sockets -- the same :mod:`repro.service.loadgen` client the CI smoke
burst uses -- and folds the numbers into ``BENCH_service.json``
(repo root), whose ``recorded.floors`` holds ``warm_qps`` to the
floor that ``repro bench --check`` and the CI burst also enforce.

* **cold**: one request per uncached cell, sequentially, over a small
  machine subset (each one simulates on the worker pool);
* **warm**: a keep-alive burst of thousands of requests round-robined
  over the same cells, asserting **zero** additional simulations.
"""

import asyncio
import os
import time

from conftest import assert_clears_floors, bench_instructions

from repro.service.app import DesignSpaceService
from repro.service.loadgen import get_json, run_burst

#: The checked-in service throughput record (repo root).
BENCH_SERVICE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_service.json"
)

#: Machines x workloads served during the bench (small on purpose:
#: the cold phase simulates each cell once).
MACHINES = ("baseline", "dependence")
WORKLOADS = ("compress", "gcc", "li")

#: Requests in the warm keep-alive burst.
WARM_REQUESTS = 4000


def _record_service(measured: dict) -> None:
    """Fold this run's measurements into ``BENCH_service.json`` via
    the single schema-stamped writer (preserves the recorded block)."""
    from repro.obs.ledger import record_bench

    record_bench(BENCH_SERVICE_PATH, "repro-service-bench", measured)


async def _measure(tmp_path) -> dict:
    budget = bench_instructions()
    service = DesignSpaceService(
        cache_dir=str(tmp_path / "cache"),
        jobs=2,
        instructions=budget,
        ledger_root=str(tmp_path / "ledger"),
    )
    paths = [
        f"/v1/cell?machine={machine}&workload={workload}&n={budget}"
        for machine in MACHINES
        for workload in WORKLOADS
    ]
    server = await service.start("127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        # Cold: every request is a miss that simulates its cell.
        started = time.perf_counter()
        for path in paths:
            status, payload = await get_json("127.0.0.1", port, path,
                                             timeout=600.0)
            assert status == 200, payload
            assert payload["source"] == "simulated"
        cold_seconds = time.perf_counter() - started
        simulations = service.registry.value("service_simulations_total")
        assert simulations == len(paths)

        # Warm: a keep-alive burst over the same cells, zero new work.
        result = await run_burst("127.0.0.1", port, paths,
                                 requests=WARM_REQUESTS, concurrency=8)
        assert result.all_ok, result.to_dict()
        assert service.registry.value(
            "service_simulations_total") == simulations
    finally:
        server.close()
        await server.wait_closed()
        service.close()
    cold_qps = len(paths) / cold_seconds
    return {
        "instructions_per_cell": budget,
        "cells": len(paths),
        "cold_seconds": round(cold_seconds, 3),
        "cold_qps": round(cold_qps, 2),
        "warm_requests": result.requests,
        "warm_seconds": round(result.seconds, 3),
        "warm_qps": round(result.qps, 2),
        "warm_speedup": round(result.qps / cold_qps, 1),
    }


def test_service_cold_vs_warm_throughput(benchmark, paper_report, tmp_path):
    """Serve cold misses, then prove the warm hot path over sockets."""
    measured = benchmark.pedantic(
        lambda: asyncio.run(_measure(tmp_path)), rounds=1, iterations=1
    )
    paper_report(
        "Design-space service throughput (HTTP over the campaign cache)",
        f"  cold: {measured['cells']} cells simulated in "
        f"{measured['cold_seconds']}s ({measured['cold_qps']} qps)\n"
        f"  warm: {measured['warm_requests']} requests in "
        f"{measured['warm_seconds']}s ({measured['warm_qps']} qps, "
        f"{measured['warm_speedup']}x cold)",
    )
    _record_service(measured)
    assert_clears_floors("service", measured)
    assert measured["warm_qps"] > measured["cold_qps"]
