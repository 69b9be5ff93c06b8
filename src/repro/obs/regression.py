"""Performance-regression tracking (``repro bench --check``).

Compares the *current* measurements against two references:

* the committed floors in the repo-root ``BENCH_*.json`` records --
  ``compiled_min_rate_floor`` / ``compiled_row_floors`` /
  ``seed_min_rate_floor`` for simulator throughput,
  ``min_warm_speedup_floor`` for the campaign cache,
  ``min_warm_qps_floor`` for warm service throughput,
  ``min_gen_inst_per_s_floor`` / ``gen_row_floors`` for workload
  trace generation --
  which are hard gates (a measurement below its floor is a
  regression, full stop); and
* the run ledger's trailing window -- the newest entry of each kind
  against the mean of the previous ones, failing when throughput or
  cache-hit rate drops by more than ``threshold`` (a *relative* gate
  that catches slow erosion the absolute floors are too loose for).

Everything here is a pure function over loaded payloads, so the CLI,
CI, and the tests drive the exact same checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.obs.ledger import Ledger, LedgerEntry

#: Maximum tolerated relative drop vs the trailing-window mean before
#: the check fails (0.5 = current may not fall below half the mean).
DEFAULT_THRESHOLD = 0.5

#: Ledger entries (per kind) the trailing window averages over.
DEFAULT_WINDOW = 5

#: The repo-root bench records the tracker reads.
BENCH_FILES = ("BENCH_simulator.json", "BENCH_frontier.json",
               "BENCH_service.json", "BENCH_workloads.json")


@dataclass(frozen=True)
class RegressionFinding:
    """One detected regression (or reference problem)."""

    subject: str
    measured: float
    reference: float
    source: str  # "floor" or "trailing"
    detail: str

    def format_row(self) -> str:
        """One aligned report line."""
        return (f"  REGRESSION {self.subject}: measured {self.measured:,.1f} "
                f"vs {self.source} reference {self.reference:,.1f} "
                f"({self.detail})")


def check_simulator_bench(payload: dict) -> list[RegressionFinding]:
    """Measured simulator rates against the committed floors.

    The frozen reference model (labels containing ``"(reference)"``)
    must clear ``recorded.seed_min_rate_floor``; every other row -- the
    compiled pipeline, labelled ``"(compiled)"`` -- must clear
    ``recorded.compiled_min_rate_floor`` and, when the row has one,
    its own ``recorded.compiled_row_floors`` entry (half its recorded
    median, so a 2x regression of that shape fails).
    """
    findings: list[RegressionFinding] = []
    recorded = payload.get("recorded", {})
    seed_floor = recorded.get("seed_min_rate_floor")
    compiled_floor = recorded.get("compiled_min_rate_floor")
    row_floors = recorded.get("compiled_row_floors", {})
    for label, rate in sorted(payload.get("measured", {}).items()):
        if "(reference)" in label:
            floor = seed_floor
        else:
            floors = [f for f in (compiled_floor, row_floors.get(label))
                      if f is not None]
            floor = max(floors) if floors else None
        if floor is None:
            continue
        if rate < floor:
            findings.append(RegressionFinding(
                subject=f"simulator throughput {label}",
                measured=float(rate),
                reference=float(floor),
                source="floor",
                detail="inst/s below the committed BENCH_simulator.json "
                       "floor",
            ))
    return findings


def check_frontier_bench(payload: dict) -> list[RegressionFinding]:
    """Measured warm-cache speedup against the committed floor."""
    findings: list[RegressionFinding] = []
    measured = payload.get("measured", {})
    floor = payload.get("recorded", {}).get("min_warm_speedup_floor")
    speedup = measured.get("warm_speedup")
    if floor is not None and speedup is not None and speedup < floor:
        findings.append(RegressionFinding(
            subject="frontier warm-cache speedup",
            measured=float(speedup),
            reference=float(floor),
            source="floor",
            detail="warm/cold speedup below the committed "
                   "BENCH_frontier.json floor",
        ))
    return findings


def check_service_bench(payload: dict) -> list[RegressionFinding]:
    """Measured warm-serving throughput against the committed floor."""
    findings: list[RegressionFinding] = []
    measured = payload.get("measured", {})
    floor = payload.get("recorded", {}).get("min_warm_qps_floor")
    qps = measured.get("warm_qps")
    if floor is not None and qps is not None and qps < floor:
        findings.append(RegressionFinding(
            subject="service warm-cache throughput",
            measured=float(qps),
            reference=float(floor),
            source="floor",
            detail="warm queries/sec below the committed "
                   "BENCH_service.json floor",
        ))
    return findings


def check_workloads_bench(payload: dict) -> list[RegressionFinding]:
    """Measured trace-generation rates against the committed floors.

    Every ``measured`` entry (kernel and Mini generation, synthetic
    generation, external-trace round-trip) must clear
    ``recorded.min_gen_inst_per_s_floor`` and, when the row has one,
    its own ``recorded.gen_row_floors`` entry (half its recorded
    median, so a 2x regression of that row fails).
    """
    findings: list[RegressionFinding] = []
    recorded = payload.get("recorded", {})
    shared_floor = recorded.get("min_gen_inst_per_s_floor")
    row_floors = recorded.get("gen_row_floors", {})
    for label, rate in sorted(payload.get("measured", {}).items()):
        floors = [f for f in (shared_floor, row_floors.get(label))
                  if f is not None]
        if not floors:
            continue
        floor = max(floors)
        if rate < floor:
            findings.append(RegressionFinding(
                subject=f"workload generation {label}",
                measured=float(rate),
                reference=float(floor),
                source="floor",
                detail="inst/s below the committed BENCH_workloads.json "
                       "floor",
            ))
    return findings


def check_trailing_window(
    entries: list[LedgerEntry],
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
) -> list[RegressionFinding]:
    """The newest ledger entry of each kind vs its trailing window.

    For every kind with at least two comparable entries, the newest
    entry's simulated throughput (and, for campaign-shaped kinds, its
    cache-hit rate) must not fall more than ``threshold`` below the
    mean of the preceding ``window`` entries.  Entries that simulated
    nothing (fully warm caches) are excluded from the throughput
    comparison -- a warm rerun is a success, not a regression.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    findings: list[RegressionFinding] = []
    by_kind: dict[str, list[LedgerEntry]] = {}
    for entry in entries:
        by_kind.setdefault(entry.kind, []).append(entry)
    for kind in sorted(by_kind):
        history = by_kind[kind]
        rated = [e for e in history if e.instructions_per_second > 0]
        if len(rated) >= 2:
            current, trailing = rated[-1], rated[-1 - window:-1]
            mean = sum(e.instructions_per_second for e in trailing) / len(
                trailing)
            floor = (1.0 - threshold) * mean
            if current.instructions_per_second < floor:
                findings.append(RegressionFinding(
                    subject=f"{kind} throughput (run {current.run_id[:12]})",
                    measured=current.instructions_per_second,
                    reference=mean,
                    source="trailing",
                    detail=f"inst/s dropped >{threshold:.0%} below the "
                           f"trailing-{len(trailing)} mean",
                ))
        celled = [e for e in history if e.cell_count > 0]
        if len(celled) >= 2:
            current, trailing = celled[-1], celled[-1 - window:-1]
            mean = sum(e.cache_hit_rate for e in trailing) / len(trailing)
            floor = (1.0 - threshold) * mean
            if mean > 0 and current.cache_hit_rate < floor:
                findings.append(RegressionFinding(
                    subject=f"{kind} cache-hit rate "
                            f"(run {current.run_id[:12]})",
                    measured=current.cache_hit_rate,
                    reference=mean,
                    source="trailing",
                    detail=f"hit rate dropped >{threshold:.0%} below the "
                           f"trailing-{len(trailing)} mean",
                ))
    return findings


def load_bench(path: str | Path) -> dict:
    """Load one BENCH_*.json payload (empty dict when unreadable)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


def check_all(
    bench_dir: str | Path = ".",
    ledger: Ledger | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
) -> list[RegressionFinding]:
    """Every check the ``repro bench --check`` gate runs."""
    bench_dir = Path(bench_dir)
    findings = check_simulator_bench(
        load_bench(bench_dir / "BENCH_simulator.json"))
    findings.extend(check_frontier_bench(
        load_bench(bench_dir / "BENCH_frontier.json")))
    findings.extend(check_service_bench(
        load_bench(bench_dir / "BENCH_service.json")))
    findings.extend(check_workloads_bench(
        load_bench(bench_dir / "BENCH_workloads.json")))
    if ledger is not None:
        findings.extend(check_trailing_window(
            ledger.entries(), threshold=threshold, window=window))
    return findings


def format_findings(findings: list[RegressionFinding]) -> str:
    """Human-readable gate report."""
    if not findings:
        return "  no regressions: all measurements clear their floors"
    return "\n".join(finding.format_row() for finding in findings)
