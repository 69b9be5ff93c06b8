"""The repository benchmark: one command, three workloads
(``BENCHMARK.json`` lists two of them; README.md says why).

Usage::

    python3 perfbench/run.py --workload {campaign_cold,serve_warm,serve_cold}
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off; ``--trace 1`` makes one traced run and prints the
per-layer metrics.  Every metric is printed as ``metric <name> =
<value> <unit>``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every output the program
returns is checked against the digests in ``digests.json``; a
mismatch, a non-200 answer, a timeout or an exception is a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import (
    NO_REFERENCE_NOTE,
    ROOT,
    WORK,
    OpCounter,
    Tracer,
    attribute,
    emit,
    host_probe,
    load_digests,
    rate,
    use_source_tree,
)

WORKLOADS = ("campaign_cold", "serve_warm", "serve_cold")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny budgets, for the self-test")
    parser.add_argument("--plant-wrong-digest", action="store_true",
                        help="self-test: corrupt some pinned digests")
    parser.add_argument("--plant-404", action="store_true",
                        help="self-test: add an unknown machine to the "
                             "serve_warm mix")
    return parser.parse_args(argv)


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer work and time from one traced run's spans."""
    def pick(name: str, counted: bool = False) -> list[dict]:
        return [s for s in spans if s["name"] == name
                and (not counted or "insts" in s)]

    def busy(chosen: list[dict]) -> float:
        return sum(s["end"] - s["start"] for s in chosen)

    def throughput(chosen: list[dict]) -> float:
        return rate(sum(s["insts"] for s in chosen), busy(chosen))

    out: dict[str, float] = {}
    interp, compiled = pick("pipeline.interp"), pick("pipeline.compiled")
    out["pipeline.interp_inst_per_s"] = throughput(interp)
    out["pipeline.compiled_inst_per_s"] = throughput(compiled)
    out["compile.fallback_ratio"] = rate(len(interp),
                                         len(interp) + len(compiled))
    generated = pick("workloads.trace", counted=True)
    out["workloads.trace_s"] = busy(generated)
    for cls in ("kernel", "synthetic", "mini"):
        out[f"workloads.{cls}_inst_per_s"] = throughput(
            [s for s in generated if s.get("class") == cls])
    analysed = pick("preanalysis", counted=True)
    out["preanalysis.s"] = busy(analysed)
    out["preanalysis.inst_per_s"] = throughput(analysed)
    stores = sorted(s["end"] - s["start"] for s in pick("campaign.cache_store"))
    if stores:
        out["campaign.cache_store_ms"] = stores[len(stores) // 2] * 1e3
    return out


def traced_run(args, pinned: dict, ops: OpCounter) -> tuple[dict, list]:
    """One traced run; returns per-layer metrics and notes."""
    import campaign
    import serve

    # serve_warm is not a listed workload (see README.md), so the
    # serve_cold traced run also traces the warm serving path.
    parts = {
        "campaign_cold": [campaign.traced],
        "serve_warm": [serve.traced_warm],
        "serve_cold": [serve.traced_cold, serve.traced_warm],
    }[args.workload]
    notes: list[str] = []
    tracer = Tracer()
    out: dict[str, float] = {"compile.s": 0.0, "compile.runners": 0}
    roots: list[int] = []
    traced_wall = untraced_wall = 0.0
    for part in parts:
        got, part_roots, compile_stats = part(args.seed, args.tiny, pinned,
                                              ops, tracer)
        traced_wall += got.pop("_traced_wall")
        untraced_wall += got.pop("_untraced_wall")
        out.update(got)
        roots += part_roots
        if compile_stats:
            out["compile.s"] += compile_stats["compile_seconds"]
            out["compile.runners"] += compile_stats["compiles"]
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out.update(span_metrics(tracer.spans))

    selfs: dict[str, float] = {}
    unattributed = wall = 0.0
    for root in roots:
        span = tracer.spans[root]
        layer, rest, problems = attribute(tracer.spans, root)
        for name, seconds in layer.items():
            selfs[name] = selfs.get(name, 0.0) + seconds
        unattributed += rest
        wall += span["end"] - span["start"]
        for problem in problems:
            ops.fail(f"attribution: {problem}")
    total = sum(selfs.values()) + unattributed
    ops.check(abs(total - wall) <= 1e-6 * max(wall, 1.0),
              f"self times sum to {total:.6f}s, traced wall is {wall:.6f}s")
    out["trace.wall_s"] = wall
    out["trace.unattributed_frac"] = rate(unattributed, wall)
    out["share.interp"] = rate(selfs.get("pipeline.interp", 0.0), wall)
    worker = sum(s["end"] - s["start"] for s in tracer.spans
                 if s["name"] == "campaign.simulate_cell")
    out["share.trace_preanalysis_worker"] = rate(
        selfs.get("workloads.trace", 0.0) + selfs.get("preanalysis", 0.0),
        worker)
    for name, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        notes.append(f"self {name} = {seconds:.6f} s "
                     f"({100 * rate(seconds, wall):.1f}% of traced wall)")
    notes.append(f"self unattributed = {unattributed:.6f} s "
                 f"({100 * rate(unattributed, wall):.1f}% of traced wall)")
    tracer.write(WORK / f"spans-{args.workload}-{args.seed}.json")
    return out, notes


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    use_source_tree()
    WORK.mkdir(parents=True, exist_ok=True)
    pinned = load_digests(args.plant_wrong_digest)
    ops = OpCounter()
    probe_before = host_probe()
    started = time.perf_counter()
    notes = [NO_REFERENCE_NOTE]

    if args.trace:
        measured, extra = traced_run(args, pinned, ops)
        wanted = spec["per_layer"]
    else:
        import campaign
        import serve

        if args.workload == "campaign_cold":
            measured = campaign.run(args.seed, args.seconds, args.tiny,
                                    pinned, ops)
        elif args.workload == "serve_warm":
            measured = serve.run_warm(args.seed, args.seconds, args.tiny,
                                      pinned, ops, args.plant_404)
        else:
            measured = serve.run_cold(args.seed, args.seconds, args.tiny,
                                      pinned, ops)
        extra = [f"info {key[1:]} = {value}" for key, value in
                 sorted(measured.items()) if key.startswith("_")]
        wanted = spec["end_to_end"]
    probe_after = host_probe()
    measured["host.probe_ms"] = (probe_before + probe_after) / 2
    notes += extra
    notes.append(f"info host.probe_ms before = {probe_before:.3f} ms, "
                 f"after = {probe_after:.3f} ms")
    notes.append(f"info run wall = {time.perf_counter() - started:.2f} s")

    metrics: dict[str, tuple[float, str]] = {}
    for entry in wanted:
        value = measured.get(entry["name"])
        if value is None:
            if not args.trace:
                raise RuntimeError(f"{entry['name']} was not measured")
            notes.append(f"info {entry['name']} not exercised by "
                         f"{args.workload}; reported as 0")
            value = 0.0
        metrics[entry["name"]] = (float(value), entry["unit"])
    emit(metrics, ops, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
