"""The ``campaign_cold`` workload.

Each round starts ``child.py`` in a fresh interpreter, which runs one
cold ``run_campaign`` over the whole registry x paper grid (empty
result cache, cold trace and compile caches, ``jobs=1``).  The seed
sets the machine and workload order of the grid.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import threading
import time

from common import (
    BENCH_DIR,
    WORK,
    Child,
    OpCounter,
    Tracer,
    child_env,
    fresh_dir,
    percentile,
    rate,
    tail_percentile,
)

from repro.core.machines import MACHINE_REGISTRY
from repro.workloads import WORKLOAD_NAMES

#: Per-cell instruction budget (normal, tiny).
BUDGET = {False: 4000, True: 300}
ROUND_TIMEOUT = 150.0


def grid(seed: int, tiny: bool) -> dict:
    """The seeded grid: the seed orders the workloads of every machine.

    Machines stay in registry order, so the first machine -- the one
    whose cells also pay for building each trace -- is always
    ``baseline``, and the set of per-cell costs does not depend on
    the seed.
    """
    rng = random.Random(f"campaign_cold:{seed}")
    workloads = list(WORKLOAD_NAMES)
    rng.shuffle(workloads)
    return {"machines": list(MACHINE_REGISTRY), "workloads": workloads,
            "budget": BUDGET[tiny]}


def run_child(mode: str, spec: dict, name: str) -> dict:
    """One fresh campaign process; returns its result plus ``setup``."""
    workdir = fresh_dir(f"campaign_cold/{name}")
    spec = dict(spec, cache=str(workdir / "cache"))
    child = Child([sys.executable, str(BENCH_DIR / "child.py"), mode,
                   json.dumps(spec)],
                  child_env(workdir / "ledger"), workdir / "child.log")
    watchdog = threading.Timer(ROUND_TIMEOUT, child.stop)
    watchdog.start()
    try:
        ready = child.proc.stdout.readline()
        setup = time.perf_counter() - child.started
        line = child.proc.stdout.readline()
        if ready.strip() != "ready" or not line.startswith("result "):
            raise RuntimeError(f"campaign child failed: {child.stderr_tail()}")
        out = json.loads(line[len("result "):])
    finally:
        watchdog.cancel()
        child.stop()
    out["setup"] = setup
    return out


def check_digests(out: dict, pinned: dict, ops: OpCounter) -> None:
    for label, value in out["digests"].items():
        ops.check(value == pinned["cells"].get(label),
                  f"{label}: stats digest differs from the pinned one")


def run(seed: int, seconds: float, tiny: bool, pinned: dict,
        ops: OpCounter) -> dict:
    spec = grid(seed, tiny)
    started = time.perf_counter()
    rounds: list[dict] = []
    while True:
        elapsed = time.perf_counter() - started
        last = elapsed / len(rounds) if rounds else 0.0
        if len(rounds) >= 3 and elapsed + last > seconds:
            break
        out = run_child("campaign", spec, str(len(rounds)))
        check_digests(out, pinned, ops)
        rounds.append(out)
    cells = [x for r in rounds for x in r["cell_seconds"]]
    wall = sum(r["wall"] for r in rounds)
    return {
        "setup_s": statistics.median(r["setup"] for r in rounds),
        "sim_inst_per_s": rate(sum(r["committed"] for r in rounds), wall),
        "request_p50_ms": percentile(cells, 0.5) * 1e3,
        "request_p90_ms": tail_percentile(cells, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "_samples": len(cells),
        "_rounds": len(rounds),
    }


def traced(seed: int, tiny: bool, pinned: dict, ops: OpCounter,
           tracer: Tracer) -> tuple[dict, list[int], dict]:
    """An untraced and a traced campaign, each in a fresh process."""
    from layers import micro_timings
    from repro.core.campaign import CampaignCell, ResultCache, cache_key
    from repro.core.machines import machine_registry

    spec = grid(seed, tiny)
    plain = run_child("campaign", spec, "untraced")
    check_digests(plain, pinned, ops)
    replay = run_child("replay", spec, "traced")
    check_digests(replay, pinned, ops)
    ops.check(replay["digests"] == plain["digests"],
              "replayed digests differ from the untraced campaign's")

    registry = machine_registry()
    cells = [CampaignCell(m, registry[m], w, spec["budget"])
             for m in spec["machines"] for w in spec["workloads"]]
    cache = ResultCache(WORK / "campaign_cold" / "traced" / "cache")
    stats = [cache.load(cache_key(c.config, c.workload, c.max_instructions))
             for c in cells]
    ops.check(all(s is not None for s in stats),
              "replayed campaign left cells out of its cache")
    out = micro_timings(cells, stats, cache, WORK)
    out["campaign.overhead_s"] = plain["wall"] - plain["worker_seconds"]
    out["_traced_wall"] = replay["wall"]
    out["_untraced_wall"] = plain["wall"]
    tracer.spans.extend(replay["spans"])
    return out, [replay["root"]], replay["compile"]
