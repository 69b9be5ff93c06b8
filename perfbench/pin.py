"""Write ``digests.json``: the outputs every benchmark run is checked
against.

Usage: ``python3 perfbench/pin.py``

For every cell any workload asks for (normal and tiny budgets) it
pins the digest of ``SimStats.to_dict`` from ``simulate(mode=
"compiled")`` and its committed count.  Each digest is first
cross-checked against ``simulate(mode="reference")`` on every shape
where ``supports_reference`` holds; a disagreement aborts.  The
service-shaped outputs -- ``clocked`` of ``/v1/cell?tech=all``, the
``points`` of ``/v1/frontier?tech=all`` and the ``techs`` of
``/v1/delay/<machine>`` -- are pinned from an in-process service over
the pinned cells.
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile

from common import DIGESTS_PATH, cell_label, digest, use_source_tree


def main() -> int:
    use_source_tree()
    import campaign
    import serve
    from repro.core.campaign import ResultCache, cache_key
    from repro.core.machines import MACHINE_REGISTRY, machine_registry
    from repro.service.app import DesignSpaceService
    from repro.uarch.pipeline import simulate
    from repro.uarch.scheduler import supports_reference
    from repro.workloads import WORKLOAD_NAMES, get_trace

    registry = machine_registry()
    wanted: set[tuple[str, str, int]] = set()
    for tiny in (False, True):
        for budget in (campaign.BUDGET[tiny], serve.WARM_BUDGET[tiny]):
            wanted |= {(m, w, budget) for m in MACHINE_REGISTRY
                       for w in WORKLOAD_NAMES}
        wanted |= {(m, w, n) for m in serve.COLD_MACHINES
                   for w in serve.cold_workloads()
                   for n in serve.COLD_BUDGETS[tiny]}

    cells, committed, stats_by_cell = {}, {}, {}
    checked = 0
    for machine, workload, budget in sorted(wanted):
        config = registry[machine]
        trace = get_trace(workload, budget)
        stats = simulate(config, trace, mode="compiled")
        value = digest(stats.to_dict())
        if supports_reference(config):
            reference = simulate(config, trace, mode="reference")
            if digest(reference.to_dict()) != value:
                print(f"{machine}/{workload}/{budget}: compiled and "
                      "reference SimStats differ", file=sys.stderr)
                return 1
            checked += 1
        label = cell_label(machine, workload, budget)
        cells[label] = value
        committed[label] = stats.committed
        stats_by_cell[(machine, workload, budget)] = stats

    clocked, frontier, delay = {}, {}, {}
    for tiny in (False, True):
        budget = serve.WARM_BUDGET[tiny]
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            for machine in MACHINE_REGISTRY:
                for workload in WORKLOAD_NAMES:
                    cache.store(
                        cache_key(registry[machine], workload, budget),
                        stats_by_cell[(machine, workload, budget)])
            service = DesignSpaceService(cache=cache, instructions=budget,
                                         ledger_root=tmp)

            async def ask(url: str) -> dict:
                status, _, body = await service.handle_http("GET", url)
                if status != 200:
                    raise RuntimeError(f"{url} answered {status}")
                return json.loads(body)

            for machine in MACHINE_REGISTRY:
                for workload in WORKLOAD_NAMES:
                    data = asyncio.run(ask(
                        f"/v1/cell?machine={machine}&workload={workload}"
                        "&tech=all"))
                    label = cell_label(machine, workload, budget)
                    if digest(data["stats"]) != cells[label]:
                        raise RuntimeError(f"{label}: service stats differ")
                    clocked[label] = digest(data["clocked"])
                delay[machine] = digest(
                    asyncio.run(ask(f"/v1/delay/{machine}"))["techs"])
            frontier[str(budget)] = digest(
                asyncio.run(ask("/v1/frontier?tech=all"))["points"])
            service.close()

    DIGESTS_PATH.write_text(json.dumps({
        "about": "SimStats.to_dict digests from simulate(mode='compiled'), "
                 "equal to simulate(mode='reference') on every "
                 "supports_reference shape; written by perfbench/pin.py",
        "reference_checked": checked,
        "cells": cells,
        "committed": committed,
        "clocked": clocked,
        "frontier": frontier,
        "delay": delay,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(cells)} cells ({checked} cross-checked against "
          f"the reference model) to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
