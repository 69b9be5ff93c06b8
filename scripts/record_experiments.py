#!/usr/bin/env python3
"""Run the full experiment campaign and archive the results.

Produces a timestamp-free, reproducible record: JSON result files for
Figures 13/15/17 plus a markdown summary, under ``results/`` (or a
directory given with ``-o``).  EXPERIMENTS.md is written by hand from
these numbers; this script regenerates the raw material.

Usage:
    python scripts/record_experiments.py [-n INSTRUCTIONS] [-o DIR]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.core.campaign import run_campaign
from repro.core.experiments import DEFAULT_INSTRUCTIONS, figure_configs
from repro.core.frontier import (
    conventional_frontier,
    dependence_based_point,
    format_frontier,
)
from repro.core.results_io import save_result
from repro.core.speedup import clock_adjusted_speedup
from repro.technology import TECH_018


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
    sections: list[str] = [
        f"# Recorded experiment campaign ({args.instructions} instructions)",
        "",
    ]

    print(f"running figure campaigns at {args.instructions} instructions...")
    started = time.perf_counter()
    campaigns = {
        which: run_campaign(figure_configs(which),
                            max_instructions=args.instructions,
                            name=which, jobs=args.jobs)[0]
        for which in ("fig13", "fig15", "fig17")
    }
    campaign_seconds = time.perf_counter() - started
    for name, result in campaigns.items():
        save_result(result, output / f"{name}.json")
        sections.append(f"## {name}")
        sections.append("```")
        sections.append(result.format_table())
        if name == "fig17":
            sections.append("")
            sections.append(result.format_table("bypass"))
        sections.append("```")
        sections.append("")
        print(f"  {name}: saved {output / f'{name}.json'}")

    speedup = clock_adjusted_speedup(
        campaigns["fig15"],
        dependence_machine="2-cluster dependence-based",
        window_machine="window-based 8-way",
        tech=TECH_018,
    )
    sections.append("## Section 5.5 speedup")
    sections.append("```")
    sections.append(speedup.format_table())
    sections.append("```")
    sections.append("")

    print("running the complexity-effectiveness frontier...")
    points = conventional_frontier(max_instructions=args.instructions)
    points.append(dependence_based_point(max_instructions=args.instructions))
    sections.append("## Frontier")
    sections.append("```")
    sections.append(format_frontier(points))
    sections.append("```")

    summary = output / "summary.md"
    summary.write_text("\n".join(sections) + "\n", encoding="utf-8")
    print(f"wrote {summary}")

    # The archived campaign's timings go through the same
    # schema-stamped bench writer every other harness uses.
    from repro.obs.ledger import record_bench

    bench_path = output / "BENCH_experiments.json"
    record_bench(
        bench_path,
        "repro-experiments-bench",
        {
            "instructions": args.instructions,
            "jobs": args.jobs,
            "figures": sorted(campaigns),
            "campaign_seconds": round(campaign_seconds, 3),
        },
    )
    print(f"wrote {bench_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
