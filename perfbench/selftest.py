"""Self-tests of the benchmark itself.

Usage: ``python3 perfbench/selftest.py``

* every workload, at tiny budgets, untraced and traced, prints every
  metric ``BENCHMARK.json`` names, with its unit, and fails nothing;
* a planted wrong digest, and a planted 404 URL, each push the
  reported error rate above 0;
* in a directory that holds only ``BENCHMARK.json`` and the benchmark,
  the command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from common import BENCH_DIR, ROOT, WORK

WORKLOADS = ("campaign_cold", "serve_warm", "serve_cold")


def run(args: list[str], cwd=ROOT) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3",
         "--seconds", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout + done.stderr


def result_of(output: str) -> dict:
    return json.loads(output.strip().splitlines()[-1])


def check_metrics(output: str, wanted: list[dict], label: str) -> list[str]:
    problems = []
    result = result_of(output)
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        printed = re.search(rf"^metric {re.escape(name)} = \S+ "
                            rf"{re.escape(unit)}$", output, re.MULTILINE)
        if not printed:
            problems.append(f"{label}: no line for {name} in {unit}")
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{label}: result lacks {name} in {unit}")
    if set(result["metrics"]) != {e["name"] for e in wanted}:
        problems.append(f"{label}: result metrics differ from BENCHMARK.json")
    if result["failed"] or not result["correct"]:
        problems.append(f"{label}: {result['failed']} failed operations")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            code, output = run(["--workload", workload, "--trace",
                                str(trace), "--tiny"])
            if code:
                problems.append(f"{label}: exit {code}\n{output[-2000:]}")
                continue
            problems += check_metrics(output, spec[key], label)
            print(f"ok   {label}", flush=True)

    plants = [("campaign_cold", "--plant-wrong-digest"),
              ("serve_warm", "--plant-wrong-digest"),
              ("serve_cold", "--plant-wrong-digest"),
              ("serve_warm", "--plant-404")]
    for workload, plant in plants:
        code, output = run(["--workload", workload, "--tiny", plant])
        result = result_of(output) if code == 0 else None
        if result is None or result["failed"] == 0 or result["correct"]:
            problems.append(f"{workload} {plant}: error_rate stayed 0")
        else:
            print(f"ok   {workload} {plant}: {result['failed']} of "
                  f"{result['attempted']} failed", flush=True)

    bare = WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, output = run(["--workload", "campaign_cold"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or '"correct"' in output:
        problems.append("without the program the benchmark did not fail")
    else:
        print(f"ok   no program: exit {code}", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
