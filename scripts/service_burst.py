#!/usr/bin/env python3
"""Smoke-burst a running design-space service (the CI service gate).

Points the shared load client at a server that is expected to be
**warm** (started with ``repro serve --warm <grid>``) and asserts the
serving-tier contract end to end:

1. ``/v1/healthz`` answers and reports the expected machine count;
2. a keep-alive burst over every machine's cell endpoints answers
   all-200 at or above the committed ``warm_qps`` floor in
   ``BENCH_service.json``'s ``recorded.floors``, checked by
   :func:`repro.obs.regression.check_bench`;
3. the burst triggered **zero** simulations -- proven by diffing
   ``service_simulations_total`` from ``/v1/metrics`` before/after.

Exits nonzero (with a reason on stderr) when any of these fail.

Usage:
    python scripts/service_burst.py [--host H] [--port P]
        [--requests N] [--concurrency C] [-n INSTRUCTIONS]
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

from repro.obs.regression import check_bench, load_bench
from repro.service.loadgen import get_json, run_burst

REPO_ROOT = Path(__file__).resolve().parent.parent


def _metric_value(exposition: str, name: str) -> float:
    """Sum every sample of ``name`` in a Prometheus exposition (0.0
    when the metric has not been created yet)."""
    total = 0.0
    for line in exposition.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            total += float(line.rsplit(None, 1)[-1])
    return total


async def burst(args) -> int:
    status, health = await get_json(args.host, args.port, "/v1/healthz")
    if status != 200:
        print(f"FAIL healthz answered {status}: {health}", file=sys.stderr)
        return 1
    print(f"healthz: {health['machines']} machines, "
          f"{health['pending_simulations']} pending simulations")

    status, listing = await get_json(args.host, args.port, "/v1/machines")
    assert status == 200, listing
    budget = args.instructions or health["default_instructions"]
    paths = [
        f"/v1/cell?machine={m['name']}&workload={w}&n={budget}"
        for m in listing["machines"]
        for w in listing["workloads"]
    ]

    _, before = await get_json(args.host, args.port, "/v1/metrics")
    sims_before = _metric_value(before["raw"], "service_simulations_total")

    result = await run_burst(args.host, args.port, paths,
                             requests=args.requests,
                             concurrency=args.concurrency)
    print(f"burst: {result.to_dict()}")

    _, after = await get_json(args.host, args.port, "/v1/metrics")
    sims_after = _metric_value(after["raw"], "service_simulations_total")

    recorded = load_bench(REPO_ROOT / "BENCH_service.json")["recorded"]
    below = check_bench("service", {"measured": {"warm_qps": result.qps},
                                    "recorded": recorded})
    failures = [finding.format_row().strip() for finding in below]
    if not result.all_ok:
        failures.append(f"non-200 responses: {result.statuses}")
    if sims_after != sims_before:
        failures.append(
            f"warm burst simulated {sims_after - sims_before:.0f} cells "
            "(expected zero: is the cache warm for this -n budget?)")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        print(f"OK {result.qps:.0f} qps warm "
              f"(floor {recorded['floors']['warm_qps']:.0f}), "
              f"zero simulations across {result.requests} requests")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="burst a warm design-space service and enforce the "
                    "zero-simulation + throughput contract")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument("--requests", type=int, default=3000)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("-n", "--instructions", type=int, default=None,
                        help="per-cell budget in the requests (default: "
                             "the server's default budget)")
    return asyncio.run(burst(parser.parse_args()))


if __name__ == "__main__":
    sys.exit(main())
