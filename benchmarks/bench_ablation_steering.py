"""Ablation: why does random steering lose -- blindness or imbalance?

Random steering (Figure 17's baseline) is both dependence-blind and
(statistically) load balanced.  Two extra policies separate the
factors: modulo steering is blind but perfectly balanced; least-loaded
steering is blind and actively balancing.  If they perform like
random steering while dispatch-driven dependence steering does not,
the paper's conclusion -- "it is essential for the steering logic to
consider dependences" -- is confirmed at the mechanism level.
"""

from conftest import bench_instructions

from repro.core.campaign import run_campaign
from repro.core.machines import (
    baseline_8way,
    clustered_least_loaded_8way,
    clustered_modulo_8way,
    clustered_random_8way,
    clustered_windows_8way,
)

WORKLOADS = ("compress", "gcc", "m88ksim", "vortex")
IDEAL = "ideal"


def run_suite():
    configs = {
        IDEAL: baseline_8way(),
        "dispatch (dependence-aware)": clustered_windows_8way(),
        "random (blind)": clustered_random_8way(),
        "modulo (blind, balanced)": clustered_modulo_8way(),
        "least-loaded (blind, balancing)": clustered_least_loaded_8way(),
    }
    result, _ = run_campaign(
        configs,
        workloads=WORKLOADS,
        max_instructions=bench_instructions(),
        name="ablation-steering",
    )
    return result


def format_report(result):
    lines = [result.format_table(), "", "mean relative IPC and bypass traffic:"]
    for machine in result.machine_names:
        if machine == IDEAL:
            continue
        mean = result.mean_relative_ipc(machine, IDEAL)
        traffic = sum(result.bypass_frequency(machine).values()) / len(WORKLOADS)
        lines.append(f"  {machine:34s} {mean:.3f}  ({100 * traffic:.1f}% x-bypass)")
    return "\n".join(lines)


def test_ablation_steering_blindness(benchmark, paper_report):
    result = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    paper_report("Ablation: dependence-blind steering variants",
                 format_report(result))
    means = {
        machine: result.mean_relative_ipc(machine, IDEAL)
        for machine in result.machine_names
        if machine != IDEAL
    }
    aware = means.pop("dispatch (dependence-aware)")
    # Every blind policy loses badly; dependence awareness recovers
    # most of the gap regardless of load balance.
    for machine, mean in means.items():
        assert mean < aware - 0.05, machine
        traffic = sum(result.bypass_frequency(machine).values()) / len(WORKLOADS)
        assert traffic > 0.30, machine
