"""The run ledger: append-only JSONL history of every invocation.

A calibrated model is only trustworthy while it is continuously
measured against recorded reference numbers.  The ledger is that
record: every ``simulate`` / ``campaign`` / ``frontier`` / ``fuzz``
invocation appends one JSON line under ``.repro/ledger/`` -- git SHA,
config hash, wall time, throughput, cache accounting, and the full
:class:`~repro.obs.metrics.MetricsSnapshot` -- so cross-run history
(the trailing window the regression tracker compares against) exists
without any external service.

Writes are atomic at the line level: an entry is serialised first and
appended with a single ``write`` on an append-mode handle, and
readers skip malformed lines, so a killed process can never corrupt
history that a later run trusts.  Compaction (``gc``) rewrites the
file through a temp file + rename.

:func:`record_bench` is the single path through which benchmark
harnesses write the repo-root ``BENCH_*.json`` records (schema-
versioned, atomic temp-file + rename).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

#: Ledger entry schema (bumped on incompatible layout changes).
LEDGER_SCHEMA = 1

#: BENCH_*.json schema written by :func:`record_bench`.
BENCH_SCHEMA = 1

#: Default ledger location, relative to the working directory.
DEFAULT_LEDGER_ROOT = Path(".repro") / "ledger"

#: Environment override for the ledger directory (tests, CI).
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"

#: Entry kinds the CLI records (the ledger accepts any string).
RUN_KINDS = ("simulate", "campaign", "frontier", "fuzz", "bench", "service")


def ledger_root(root: str | Path | None = None) -> Path:
    """Resolve the ledger directory: explicit > env > default."""
    if root is not None:
        return Path(root)
    env = os.environ.get(LEDGER_DIR_ENV)
    if env:
        return Path(env)
    return DEFAULT_LEDGER_ROOT


def atomic_write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` whole, or leave it as it was.

    The text goes to a temp file named ``<name>.<uuid4>.tmp`` beside
    ``path``, unique to this writer so concurrent writers never rename
    each other's file away, which is then renamed over ``path``.  A
    failed write unlinks its temp file; a killed writer leaves one
    behind for a ``*.tmp`` sweep to find.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@functools.cache
def git_sha() -> str:
    """The current git commit SHA, or ``"unknown"`` outside a repo.

    Memoized per process: the ``git rev-parse`` subprocess costs a few
    milliseconds, and every recorded run (each simulated service cell
    included) asks for it.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


@dataclass
class LedgerEntry:
    """One recorded invocation.

    Attributes:
        kind: Invocation family (``simulate``/``campaign``/...).
        run_id: Content hash of the entry (stable identifier).
        timestamp: Unix seconds at record time.
        git_sha: Repository revision the run executed on.
        config_hash: Content address of the run's configuration
            (machine grid, workload set, budget) -- empty when the
            run has no single configuration.
        wall_seconds: End-to-end wall clock.
        instructions_per_second: Simulated throughput (0.0 when the
            run simulated nothing, e.g. a fully warm cache).
        cache_hits / simulated_cells / cell_count: Campaign-cache
            accounting (all zero for non-campaign kinds).
        metrics: The run's metrics-snapshot document (or None).
        extra: Kind-specific scalars (seed, cases, BIPS, ...).
    """

    kind: str
    run_id: str = ""
    timestamp: float = 0.0
    git_sha: str = "unknown"
    config_hash: str = ""
    wall_seconds: float = 0.0
    instructions_per_second: float = 0.0
    cache_hits: int = 0
    simulated_cells: int = 0
    cell_count: int = 0
    metrics: dict | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready primitives (one ledger line)."""
        return {
            "schema": LEDGER_SCHEMA,
            "kind": self.kind,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "git_sha": self.git_sha,
            "config_hash": self.config_hash,
            "wall_seconds": self.wall_seconds,
            "instructions_per_second": self.instructions_per_second,
            "cache_hits": self.cache_hits,
            "simulated_cells": self.simulated_cells,
            "cell_count": self.cell_count,
            "metrics": self.metrics,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> LedgerEntry:
        """Inverse of :meth:`to_dict`.

        Raises:
            ValueError: for foreign or version-mismatched payloads.
        """
        if not isinstance(payload, dict):
            raise ValueError("ledger entry must be a JSON object")
        if payload.get("schema") != LEDGER_SCHEMA:
            raise ValueError(
                f"unsupported ledger schema {payload.get('schema')!r}"
            )
        if not isinstance(payload.get("kind"), str):
            raise ValueError("ledger entry must carry a string 'kind'")
        return cls(
            kind=payload["kind"],
            run_id=payload.get("run_id", ""),
            timestamp=payload.get("timestamp", 0.0),
            git_sha=payload.get("git_sha", "unknown"),
            config_hash=payload.get("config_hash", ""),
            wall_seconds=payload.get("wall_seconds", 0.0),
            instructions_per_second=payload.get(
                "instructions_per_second", 0.0),
            cache_hits=payload.get("cache_hits", 0),
            simulated_cells=payload.get("simulated_cells", 0),
            cell_count=payload.get("cell_count", 0),
            metrics=payload.get("metrics"),
            extra=payload.get("extra", {}),
        )

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over all cells (0.0 for cell-less runs)."""
        if self.cell_count <= 0:
            return 0.0
        return self.cache_hits / self.cell_count

    def summary_row(self) -> list:
        """Display row for ``repro ledger list``."""
        return [
            self.run_id[:12],
            self.kind,
            self.git_sha[:8],
            round(self.wall_seconds, 3),
            round(self.instructions_per_second),
            f"{self.cache_hits}/{self.cell_count}",
        ]


class Ledger:
    """The append-only JSONL run history under one directory."""

    FILENAME = "runs.jsonl"

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = ledger_root(root)

    @property
    def path(self) -> Path:
        """The ledger file."""
        return self.root / self.FILENAME

    def append(self, entry: LedgerEntry) -> LedgerEntry:
        """Stamp and persist one entry; returns it with its run_id.

        The line is fully serialised before the write and appended in
        a single call, so concurrent appenders interleave whole lines
        (and a torn final line is skipped by readers, never trusted).
        """
        if not entry.timestamp:
            entry.timestamp = time.time()
        if not entry.run_id:
            entry.run_id = _run_id(entry)
        line = json.dumps(entry.to_dict(), sort_keys=True,
                          ensure_ascii=False, separators=(",", ":"))
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
        return entry

    def entries(self, kind: str | None = None,
                limit: int | None = None) -> list[LedgerEntry]:
        """All readable entries, oldest first.

        Malformed or foreign lines are skipped silently -- the ledger
        is advisory history, never a load-bearing input that may
        crash a run.

        Args:
            kind: Keep only entries of this kind.
            limit: Keep only the *newest* ``limit`` entries (applied
                after the kind filter).
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = LedgerEntry.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError):
                continue
            if kind is None or entry.kind == kind:
                entries.append(entry)
        if limit is not None:
            entries = entries[-limit:]
        return entries

    def find(self, run_id: str) -> LedgerEntry | None:
        """Look one entry up by (a prefix of) its run_id."""
        for entry in reversed(self.entries()):
            if entry.run_id.startswith(run_id):
                return entry
        return None

    def gc(self, keep: int) -> int:
        """Compact to the newest ``keep`` entries; returns removed count.

        The rewrite is atomic (temp file + rename), so a crash leaves
        either the old or the new ledger, never a truncated one.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        entries = self.entries()
        kept = entries[len(entries) - keep:] if keep else []
        removed = len(entries) - len(kept)
        if removed <= 0:
            return 0
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path, "".join(
            json.dumps(entry.to_dict(), sort_keys=True, ensure_ascii=False,
                       separators=(",", ":")) + "\n"
            for entry in kept
        ))
        return removed


def _run_id(entry: LedgerEntry) -> str:
    """Content hash of an entry (sans run_id): the stable identifier."""
    payload = entry.to_dict()
    payload.pop("run_id", None)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":"),
                   ensure_ascii=False).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def diff_entries(old: LedgerEntry, new: LedgerEntry) -> list[tuple]:
    """Field-by-field numeric comparison of two entries.

    Returns ``(field, old, new, delta)`` rows for the scalar fields,
    the raw material of ``repro ledger diff``.
    """
    rows = []
    for name in ("wall_seconds", "instructions_per_second", "cache_hits",
                 "simulated_cells", "cell_count"):
        before = getattr(old, name)
        after = getattr(new, name)
        rows.append((name, before, after, after - before))
    rows.append(("cache_hit_rate", round(old.cache_hit_rate, 4),
                 round(new.cache_hit_rate, 4),
                 round(new.cache_hit_rate - old.cache_hit_rate, 4)))
    return rows


def record_run(
    kind: str,
    *,
    wall_seconds: float = 0.0,
    instructions_per_second: float = 0.0,
    cache_hits: int = 0,
    simulated_cells: int = 0,
    cell_count: int = 0,
    config_hash: str = "",
    snapshot=None,
    extra: dict | None = None,
    root: str | Path | None = None,
) -> LedgerEntry:
    """Build and append one run's ledger entry.

    ``snapshot`` is an optional
    :class:`~repro.obs.metrics.MetricsSnapshot` (stored as its JSON
    document).  Returns the appended entry.
    """
    entry = LedgerEntry(
        kind=kind,
        git_sha=git_sha(),
        config_hash=config_hash,
        wall_seconds=wall_seconds,
        instructions_per_second=instructions_per_second,
        cache_hits=cache_hits,
        simulated_cells=simulated_cells,
        cell_count=cell_count,
        metrics=snapshot.to_dict() if snapshot is not None else None,
        extra=dict(extra or {}),
    )
    return Ledger(root).append(entry)


def record_profile(kind: str, profile, *, config_hash: str = "",
                   extra: dict | None = None,
                   root: str | Path | None = None) -> LedgerEntry:
    """Append a :class:`~repro.obs.profiling.CampaignProfile`-shaped
    profile (campaign/frontier) as one ledger entry."""
    return record_run(
        kind,
        wall_seconds=profile.wall_seconds,
        instructions_per_second=profile.instructions_per_second,
        cache_hits=profile.cache_hits,
        simulated_cells=profile.simulated_cells,
        cell_count=profile.cell_count,
        config_hash=config_hash,
        snapshot=profile.snapshot(),
        extra=extra,
        root=root,
    )


def record_bench(path: str | Path, kind: str, measured: dict,
                 recorded: dict | None = None) -> dict:
    """Single-sourced, atomic ``BENCH_*.json`` writer.

    Every benchmark harness folds its measurements through here: the
    existing payload (with its hand-curated ``recorded`` block) is
    preserved, ``measured`` replaces the previous measurement,
    ``bench_schema`` stamps the format, and the write is atomic
    (temp file + rename).  Returns the written payload.
    """
    path = Path(path)
    payload: dict = {"kind": kind}
    try:
        existing = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(existing, dict):
            payload = existing
    except (OSError, ValueError):
        pass  # fresh payload; the recorded block is optional
    payload["kind"] = payload.get("kind", kind)
    payload["bench_schema"] = BENCH_SCHEMA
    payload["measured"] = measured
    if recorded is not None:
        payload["recorded"] = recorded
    atomic_write_text(
        path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload
