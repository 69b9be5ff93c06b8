#!/usr/bin/env python3
"""Characterise the benchmark suite -- and check the paper's premise.

The dependence-based microarchitecture bets that dynamic instruction
streams are chains: most source operands are produced only a few
instructions earlier, so steering a consumer into its producer's FIFO
usually succeeds.  This example profiles every workload (mix,
dependence distances, dataflow ILP limits, branches, memory) and
prints the premise-checking statistic: the fraction of operands
produced within 8 instructions.

Run:  python examples/workload_characterization.py [-n INSTS]
"""

import argparse

from repro.analysis import profile_trace, short_dependence_fraction
from repro.core.experiments import DEFAULT_INSTRUCTIONS
from repro.report import bar_chart
from repro.workloads import WORKLOAD_NAMES, get_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--instructions", type=int,
                        default=DEFAULT_INSTRUCTIONS)
    args = parser.parse_args()

    profiles = {}
    for name in WORKLOAD_NAMES:
        trace = get_trace(name, args.instructions)
        profiles[name] = profile_trace(trace)
        print(profiles[name].format_report())
        print()

    print("== dataflow ILP within a 128-instruction window ==")
    print(bar_chart({n: p.ilp_window_128 for n, p in profiles.items()},
                    unit=" ILP"))

    print("\n== the dependence-steering premise: operands produced "
          "within 8 instructions ==")
    fractions = {
        name: short_dependence_fraction(get_trace(name, args.instructions))
        for name in WORKLOAD_NAMES
    }
    print(bar_chart(fractions))
    print("\n(li has the lowest ILP -- pointer chasing -- which is why "
          "it degrades most in Figure 13.)")


if __name__ == "__main__":
    main()
