"""Performance-regression tracking (``repro bench --check``).

Compares the *current* measurements against two references:

* the committed floors in the repo-root ``BENCH_*.json`` records:
  each record's ``recorded.floors`` table maps a gated ``measured``
  row to its floor, a hard gate (a measurement below its floor is a
  regression, full stop) that :func:`check_bench` applies; and
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

#: The repo-root ``BENCH_<name>.json`` records the tracker reads.
BENCH_NAMES = ("simulator", "frontier", "service", "workloads")


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


def check_bench(name: str, payload: dict) -> list[RegressionFinding]:
    """Every measured row of ``BENCH_<name>.json`` below its floor.

    ``payload["recorded"]["floors"]`` maps each gated row of
    ``payload["measured"]`` to its floor.  A measured row without a
    floor gates nothing, and neither does a floor whose row this run
    did not measure.
    """
    measured = payload.get("measured", {})
    return [
        RegressionFinding(
            subject=f"{name} {row}",
            measured=float(measured[row]),
            reference=float(floor),
            source="floor",
            detail=f"below the committed BENCH_{name}.json floor",
        )
        for row, floor in sorted(
            payload.get("recorded", {}).get("floors", {}).items())
        if row in measured and measured[row] < floor
    ]


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
    findings = []
    for name in BENCH_NAMES:
        payload = load_bench(Path(bench_dir) / f"BENCH_{name}.json")
        findings.extend(check_bench(name, payload))
    if ledger is not None:
        findings.extend(check_trailing_window(
            ledger.entries(), threshold=threshold, window=window))
    return findings


def format_findings(findings: list[RegressionFinding]) -> str:
    """Human-readable gate report."""
    if not findings:
        return "  no regressions: all measurements clear their floors"
    return "\n".join(finding.format_row() for finding in findings)
