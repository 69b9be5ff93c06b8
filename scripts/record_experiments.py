#!/usr/bin/env python3
"""Regenerate every EXPERIMENTS.md section and archive the results.

Runs each section builder of :data:`repro.core.experiments.SECTIONS`
and writes the rows and sentences it prints, the same lines the
document carries, to ``summary.md`` under ``results/`` (or a
directory given with ``-o``), next to the Figure 13/15/17 results as
JSON.  All sections share one result cache, so a cell two sections
use is simulated once.

Usage:
    python scripts/record_experiments.py [-n INSTRUCTIONS] [-j JOBS] [-o DIR]
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from repro.core.campaign import ResultCache
from repro.core.experiments import DEFAULT_INSTRUCTIONS, SECTIONS
from repro.core.results_io import save_result
from repro.obs.ledger import record_bench


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--instructions", type=int,
                        default=DEFAULT_INSTRUCTIONS)
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="campaign worker processes (default 1)")
    parser.add_argument("-o", "--output", default="results")
    args = parser.parse_args()

    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    lines = [f"# EXPERIMENTS.md sections at {args.instructions} instructions",
             ""]
    print(f"building {len(SECTIONS)} sections at {args.instructions} "
          f"instructions...")
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        for builder in SECTIONS:
            section = builder(max_instructions=args.instructions,
                              jobs=args.jobs, cache=cache)
            lines += [f"## {section.title}", "", *section.lines, ""]
            result = section.data.get("result")
            if result is not None:
                save_result(result, output / f"{result.name}.json")
            print(f"  {section.title}")
    seconds = time.perf_counter() - started

    summary = output / "summary.md"
    summary.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {summary}")
    # The run's timing goes through the same schema-stamped bench
    # writer every other harness uses.
    bench_path = output / "BENCH_experiments.json"
    record_bench(bench_path, "repro-experiments-bench", {
        "instructions": args.instructions,
        "jobs": args.jobs,
        "sections": [builder.__name__ for builder in SECTIONS],
        "seconds": round(seconds, 3),
    })
    print(f"wrote {bench_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
