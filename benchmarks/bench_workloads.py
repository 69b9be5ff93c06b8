"""Benchmark the workload layer: trace-generation throughput.

The workload registry fronts every simulation, so trace generation
must stay cheap relative to the timing simulation it feeds.  This
bench measures dynamic-instructions-per-second of trace *generation*
for representatives of each built-in kind -- an assembled paper
kernel and a Mini-compiled kernel (emulator-executed), two ``zoo_*``
synthetic scenarios (generator-driven; ``zoo_ilp_wide`` draws the
most random numbers per instruction) -- plus the external-trace
ingestion path (JSONL export + strict validating reload).

The numbers fold into ``BENCH_workloads.json`` (repo root), whose
``recorded.floors`` holds every measured row to half its recorded
median over fresh-process rounds, so a 2x regression of any one row
fails.  The benchmark and ``repro bench --check`` both apply them
through :func:`repro.obs.regression.check_bench`.
"""

import os
import time

from repro.workloads import get_workload

#: The checked-in workload-layer throughput record (repo root).
BENCH_WORKLOADS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..",
    "BENCH_workloads.json"
)

#: Generation rows: label -> the workload whose loader is timed.
GENERATION_ROWS = {
    "li (kernel)": "li",
    "dct (mini)": "dct",
    "zoo_br_coin (synthetic)": "zoo_br_coin",
    "zoo_ilp_wide (synthetic)": "zoo_ilp_wide",
}
#: The ingestion row: li's trace exported and strictly reloaded.
INGESTION_ROW = "external round-trip"

#: Instructions per generation pass (uncached budgets each round).
LENGTH = 30_000


def _generation_rate(name: str, rounds: int = 5) -> float:
    """Fresh-trace generation rate (inst/s), bypassing the cache."""
    workload = get_workload(name)
    instructions = 0
    started = time.perf_counter()
    for round_index in range(rounds):
        # Distinct budgets defeat the (name, budget) trace cache.
        trace = workload._loader(LENGTH - round_index)
        instructions += len(trace)
    return instructions / (time.perf_counter() - started)


def _ingestion_rate(tmp_path, rounds: int = 5) -> float:
    """External-trace round-trip rate: JSONL export + strict reload."""
    from repro.workloads.trace_format import load_trace, save_trace

    trace = get_workload("li").trace(LENGTH)
    instructions = 0
    started = time.perf_counter()
    for round_index in range(rounds):
        path = save_trace(trace, tmp_path / f"bench-{round_index}.jsonl")
        instructions += len(load_trace(path))
    return instructions / (time.perf_counter() - started)


def _record_workloads(measured: dict) -> None:
    from repro.obs.ledger import record_bench

    record_bench(BENCH_WORKLOADS_PATH, "repro-workloads-bench", measured)


def measure(tmp_path) -> dict:
    """One rate per row (inst/s), keyed by the recorded labels."""
    measured = {label: round(_generation_rate(name), 1)
                for label, name in GENERATION_ROWS.items()}
    measured[INGESTION_ROW] = round(_ingestion_rate(tmp_path), 1)
    return measured


def test_workload_generation_throughput(benchmark, bench_report, tmp_path):
    """Measure generation + ingestion rates and enforce the floors."""
    # Imported here so the docs-sync suite can import this module for
    # its row labels without the benchmarks/ conftest on sys.path.
    from conftest import assert_clears_floors

    measured = benchmark.pedantic(measure, args=(tmp_path,), rounds=1,
                                  iterations=1)
    bench_report(
        "Workload-layer throughput (trace generation, inst/s)",
        "\n".join(f"  {label}: {rate:,.0f} inst/s"
                  for label, rate in sorted(measured.items())),
    )
    _record_workloads(measured)
    assert_clears_floors("workloads", measured)
