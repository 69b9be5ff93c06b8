"""One fresh campaign process, started by ``campaign.py``.

Usage: ``python3 perfbench/child.py {campaign|replay} '<spec json>'``

It imports the program, builds the machine configs and the empty
result cache, prints ``ready``, then runs one cold campaign (with
``run_campaign``, or traced through ``layers.Replay`` for ``replay``)
and prints ``result <json>`` with its timings, output digests and the
process's peak resident set.
"""

from __future__ import annotations

import json
import os
import sys
import time

from common import cell_label, digest, peak_rss_mb, use_source_tree


def main(mode: str, spec: dict) -> dict:
    use_source_tree()
    from repro.core.campaign import CampaignCell, ResultCache, run_campaign
    from repro.core.machines import machine_registry
    from repro.uarch.compile import compile_cache_stats

    registry = machine_registry()
    configs = {name: registry[name] for name in spec["machines"]}
    workloads = tuple(spec["workloads"])
    budget = spec["budget"]
    cache = ResultCache(spec["cache"])
    print("ready", flush=True)

    out: dict = {}
    if mode == "campaign":
        beats: list[tuple[float, float]] = []
        start = time.perf_counter()
        result, profile = run_campaign(
            configs, workloads, budget, name="perfbench", jobs=1,
            cache=cache,
            heartbeat=lambda beat: beats.append(
                (time.perf_counter(), beat.seconds)),
        )
        wall = time.perf_counter() - start
        stamps = [start] + [stamp for stamp, _ in beats]
        out["cell_seconds"] = [b - a for a, b in zip(stamps, stamps[1:])]
        out["worker_seconds"] = sum(seconds for _, seconds in beats)
        out["simulated"] = profile.simulated_cells
        stats = {(m, w): result.stats[m][w] for m in configs
                 for w in workloads}
    else:
        from common import Tracer
        from layers import Replay

        tracer = Tracer()
        cells = [CampaignCell(m, configs[m], w, budget)
                 for m in configs for w in workloads]
        start = time.perf_counter()
        with tracer.span("run") as root:
            results = Replay(tracer).campaign(cells, cache)
        wall = time.perf_counter() - start
        out["root"] = root["id"]
        out["spans"] = tracer.spans
        out["compile"] = compile_cache_stats()
        stats = {(c.machine, c.workload): s for c, s in zip(cells, results)}
    out["wall"] = wall
    out["digests"] = {cell_label(m, w, budget): digest(s.to_dict())
                      for (m, w), s in stats.items()}
    out["committed"] = sum(s.committed for s in stats.values())
    out["rss_mb"] = peak_rss_mb(os.getpid())
    return out


if __name__ == "__main__":
    result = main(sys.argv[1], json.loads(sys.argv[2]))
    print("result " + json.dumps(result), flush=True)
