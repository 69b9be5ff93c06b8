#!/usr/bin/env python3
"""Compare the clustered steering policies of Figure 17.

Runs the five machines (ideal single window; FIFO dispatch steering;
two-window dispatch steering; central-window execution steering;
random steering) over chosen benchmarks and prints IPC, relative IPC,
and inter-cluster bypass frequency.

Run:  python examples/steering_comparison.py [workload ...] [-n INSTS]
"""

import argparse

from repro.core.campaign import run_campaign
from repro.core.experiments import DEFAULT_INSTRUCTIONS, figure_configs
from repro.workloads import WORKLOAD_NAMES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "workloads",
        nargs="*",
        choices=list(WORKLOAD_NAMES) + [[]],
        help="benchmarks to run (default: compress m88ksim vortex)",
    )
    parser.add_argument(
        "-n", "--instructions", type=int, default=DEFAULT_INSTRUCTIONS,
        help=f"dynamic instructions per benchmark "
             f"(default {DEFAULT_INSTRUCTIONS})",
    )
    args = parser.parse_args()
    workloads = tuple(args.workloads) or ("compress", "m88ksim", "vortex")

    machines = figure_configs("fig17")
    print(f"simulating {len(machines)} machines x {workloads} "
          f"({args.instructions} instructions each)...\n")
    result, _ = run_campaign(
        machines,
        workloads=workloads,
        max_instructions=args.instructions,
        name="steering-comparison",
    )
    print("IPC:")
    print(result.format_table())
    print("\ninter-cluster bypass frequency:")
    print(result.format_table("bypass"))
    print("\nmean IPC relative to the ideal machine:")
    reference, *clustered = result.machine_names
    for machine in clustered:
        mean = result.mean_relative_ipc(machine, reference)
        print(f"  {machine:36s} {mean:.3f}")
    print("\npaper shape: random steering worst (-17..26%), exec-steer")
    print("nearly ideal, dispatch-steered FIFOs/windows competitive;")
    print("bypass frequency anti-correlates with IPC.")


if __name__ == "__main__":
    main()
