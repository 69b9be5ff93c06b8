#!/usr/bin/env python3
"""The paper's bottom line (Section 5.5): complexity-effectiveness.

IPC alone makes the clustered dependence-based machine look slightly
worse than a big-window superscalar.  But its window logic is a small
reservation table plus heads-only selection, so its clock can be ~25%
faster (Table 2) -- and once clock speed is factored in, it wins.

Run:  python examples/clock_speedup.py [-n INSTS]
"""

import argparse

from repro.core.campaign import run_campaign
from repro.core.experiments import (
    DEFAULT_INSTRUCTIONS,
    SECTION55_MACHINES,
    figure_configs,
)
from repro.core.speedup import clock_adjusted_speedup
from repro.delay.summary import (
    dependence_based_window_logic,
    window_logic_delay,
)
from repro.technology import TECH_018, TECHNOLOGIES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--instructions", type=int,
                        default=DEFAULT_INSTRUCTIONS)
    args = parser.parse_args()

    print("== Window-logic delay: conventional vs dependence-based ==")
    for tech in TECHNOLOGIES:
        conventional = window_logic_delay(tech, 8, 64)
        dependence = dependence_based_window_logic(
            tech, issue_width=8, physical_registers=128, fifo_count=8
        )
        print(
            f"  {tech.name:8s} conventional {conventional:7.1f} ps, "
            f"dependence-based {dependence:7.1f} ps "
            f"({conventional / dependence:.2f}x)"
        )

    print(f"\nsimulating Figure 15 at {args.instructions} instructions...")
    result, _ = run_campaign(figure_configs("fig15"),
                             max_instructions=args.instructions, name="fig15")
    print(result.format_table())

    summary = clock_adjusted_speedup(result, *SECTION55_MACHINES, TECH_018)
    print("\n== Clock-adjusted speedup (Section 5.5) ==")
    print(summary.format_table())
    print("\npaper: speedups of 10-22%, average 16%, from the same "
          "1.25x clock ratio.")


if __name__ == "__main__":
    main()
