"""Parallel experiment campaign engine with result caching.

The paper's Figures 13-17 each sweep a (machine x workload) grid; the
seed drove every cell serially in one process.  This module turns a
grid into a *campaign*: independent simulation cells fanned out across
the shared worker pool (:mod:`repro.core.pool`), backed by a
content-addressed on-disk result cache, with per-cell timeouts, bounded
retry, pool rebuilds, and graceful degradation to in-process serial
execution when workers misbehave.

Determinism is the contract everything else hangs on:

* a cell is fully described by (machine config, workload name,
  instruction budget) and the simulator is deterministic, so results
  are transportable -- across worker processes and across runs via
  the cache -- as :meth:`~repro.uarch.stats.SimStats.to_dict`
  payloads (the audited serialisation path, versioned by
  :data:`repro.core.results_io.FORMAT_VERSION`);
* cells are merged back into the
  :class:`~repro.core.experiments.ExperimentResult` in presentation
  order, never completion order, so ``jobs=1``, ``jobs=N``, and a
  warm-cache run all serialise byte-identically.

Cache layout: one ``<sha256>.json`` file per cell under the cache
root, where the key hashes the canonicalised machine config, the
workload name *and content fingerprint*, the instruction budget, the
stats format version, and the :func:`model_fingerprint` of the
simulator source.  Unreadable, truncated, or version-mismatched files
are discarded and recomputed, never trusted and never fatal.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core import results_io
from repro.core.experiments import DEFAULT_INSTRUCTIONS, ExperimentResult
from repro.core.pool import DEFAULT_RETRIES, run_cells, worker_pool
from repro.obs.ledger import atomic_write_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import CampaignProfile, record_simulation_metrics
from repro.obs.progress import Heartbeat
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import simulate
from repro.uarch.stats import SimStats
from repro.workloads import WORKLOAD_NAMES, get_trace
from repro.workloads.registry import workload_identity

#: The packages whose source determines every ``SimStats``: the timing
#: model and its code generator, the ISA and emulator, the Mini
#: compiler, and the workload generators.  Their only import from
#: outside this set is :mod:`repro.obs.events`, which shapes traces,
#: not timing (``tests/test_model_fingerprint.py`` pins that).  Clock
#: periods (:mod:`repro.delay`) are attached after a cache load, so
#: they stay out.
MODEL_PACKAGES = ("repro.uarch", "repro.isa", "repro.lang", "repro.workloads")

#: The directory holding the ``repro`` package (``MODEL_PACKAGES``
#: resolve under it).
_REPRO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# cells and cache keys
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignCell:
    """One unit of campaign work: a machine on a workload."""

    machine: str
    config: MachineConfig
    workload: str
    max_instructions: int

    @property
    def label(self) -> str:
        """Stable display/progress label for this cell."""
        return f"{self.machine}/{self.workload}"


def _canonical(value: object) -> Any:
    """Recursively reduce a config value to JSON-stable primitives.

    Dataclasses become sorted-key dicts, enums their wire values --
    the same choices the stats serialiser makes -- so the fingerprint
    is independent of Python hash seeds and field declaration order.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            name: _canonical(getattr(value, name))
            for name in sorted(f.name for f in dataclasses.fields(value))
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for hashing")


def config_fingerprint(config: MachineConfig) -> dict:
    """A machine config as canonical, JSON-ready primitives."""
    return _canonical(config)


@functools.cache
def model_fingerprint() -> str:
    """sha256 over the source of every module in :data:`MODEL_PACKAGES`.

    Each ``.py`` file contributes its path relative to the ``repro``
    package and its bytes, in sorted path order, so any edit to the
    timing model -- a latency, a stage, the code generator, a kernel
    generator -- changes every derived cache key, while edits
    elsewhere (reports, the service, the CLI) change none.  Computed
    once per process: one process cannot hold two code revisions.

    Raises:
        OSError: if a model source file cannot be read.  There is no
            fallback identity; a key that cannot see the code must not
            be trusted.
    """
    digest = hashlib.sha256()
    for package in MODEL_PACKAGES:
        directory = _REPRO_ROOT.joinpath(*package.split(".")[1:])
        paths = sorted(directory.rglob("*.py"))
        if not paths:
            raise FileNotFoundError(f"no model source under {directory}")
        for path in paths:
            data = path.read_bytes()
            relative = path.relative_to(_REPRO_ROOT).as_posix()
            digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
            digest.update(data)
    return digest.hexdigest()


def cache_key(
    config: MachineConfig,
    workload: str,
    max_instructions: int,
) -> str:
    """Content address of one cell's result.

    The key covers everything that determines the simulation output:
    the full machine configuration (scheduler and register-file
    strategy included), the workload, the instruction budget, the
    stats serialisation version
    (:data:`~repro.core.results_io.FORMAT_VERSION`, read at call time,
    so a format bump invalidates old entries instead of misreading
    them), the workload's *content
    identity* -- its kind and fingerprint -- so editing a kernel's
    source (or a zoo scenario's parameters) can never silently reuse
    stats cached under the same name, and :func:`model_fingerprint`,
    so editing the simulator's source can never either.
    """
    payload = {
        "config": config_fingerprint(config),
        "workload": workload,
        "workload_identity": workload_identity(workload),
        "max_instructions": max_instructions,
        "stats_format": results_io.FORMAT_VERSION,
        "model": model_fingerprint(),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    return digest.hexdigest()


def grid_fingerprint(
    configs: dict[str, MachineConfig],
    workloads: tuple[str, ...],
    max_instructions: int,
) -> str:
    """Content address of a whole campaign grid.

    The run ledger stores this as the campaign's ``config_hash``: two
    invocations share it exactly when they sweep the same machines,
    workloads, and budget under the same serialisation version and
    the same :func:`model_fingerprint`.
    """
    payload = {
        "configs": {
            name: config_fingerprint(config)
            for name, config in configs.items()
        },
        "workloads": list(workloads),
        "workload_identities": {
            name: workload_identity(name) for name in workloads
        },
        "max_instructions": max_instructions,
        "stats_format": results_io.FORMAT_VERSION,
        "model": model_fingerprint(),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    return digest.hexdigest()


#: Age in seconds past which a cache temp file is a killed writer's
#: leftover: a store writes one small JSON file in milliseconds, so no
#: live writer's file is ever this old.
STALE_TMP_SECONDS = 3600.0


class ResultCache:
    """Content-addressed on-disk cache of per-cell ``SimStats``.

    Entries are written atomically (temp file + rename) so a killed
    writer can never leave a half-written entry that a later run
    trusts; anything unreadable is deleted and recomputed.  Each
    writer fills its own temp file, so concurrent writers of one key
    never rename each other's file away.  Opening a cache deletes the
    temp files that killed writers left behind.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        cutoff = time.time() - STALE_TMP_SECONDS
        for tmp in self.root.glob("*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except FileNotFoundError:
                pass  # its writer renamed it, or another opener swept it

    def path(self, key: str) -> Path:
        """Filesystem location of one cache entry."""
        return self.root / f"{key}.json"

    def load(self, key: str) -> SimStats | None:
        """The cached stats for ``key``, or None.

        Corrupted, truncated, or version-mismatched entries are
        discarded (unlinked) and reported as misses.
        """
        path = self.path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            stats = results_io.stats_from_payload(json.loads(text))
        except (ValueError, KeyError, TypeError):
            path.unlink(missing_ok=True)
            return None
        return stats

    def store(self, key: str, stats: SimStats) -> None:
        """Atomically persist one cell's stats under ``key``."""
        atomic_write_text(self.path(key), json.dumps(
            results_io.stats_payload(stats), indent=1, sort_keys=True))


# ----------------------------------------------------------------------
# cell execution
# ----------------------------------------------------------------------


def simulate_cell(cell: CampaignCell) -> dict:
    """Simulate one cell; the default (picklable) worker entry point.

    Returns the result as transport primitives rather than a live
    :class:`SimStats` so the pool path, the serial path, and the cache
    all move the exact same payload::

        {"stats": SimStats.to_dict(), "seconds": wall,
         "metrics": MetricsSnapshot.to_dict()}

    The worker accumulates its cell into a private
    :class:`~repro.obs.metrics.MetricsRegistry` and ships the frozen
    snapshot home; the parent folds worker snapshots together in
    deterministic presentation order, so campaign-level metrics are
    exact, not sampled, and identical for ``jobs=1`` and ``jobs=N``.
    """
    start = time.perf_counter()
    trace = get_trace(cell.workload, cell.max_instructions)
    stats = simulate(cell.config, trace, mode="compiled")
    seconds = time.perf_counter() - start
    registry = MetricsRegistry()
    record_simulation_metrics(registry, stats, seconds,
                              machine=cell.machine, workload=cell.workload)
    return {
        "stats": stats.to_dict(),
        "seconds": seconds,
        "metrics": registry.snapshot().to_dict(),
    }


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


def run_campaign(
    configs: dict[str, MachineConfig],
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    max_instructions: int = DEFAULT_INSTRUCTIONS,
    name: str = "campaign",
    jobs: int = 1,
    cache: ResultCache | None = None,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    progress: Callable[[str], None] | None = None,
    runner: Callable[[CampaignCell], dict] | None = None,
    heartbeat: Callable[[Heartbeat], None] | None = None,
) -> tuple[ExperimentResult, CampaignProfile]:
    """Run a (machine x workload) grid and return result + profile.

    Args:
        configs: Machines in presentation order (name -> config).
        workloads: Benchmark names in presentation order.
        max_instructions: Dynamic-instruction budget per cell.
        name: Experiment identifier stored on the result.
        jobs: Worker processes; 1 means in-process serial execution.
        cache: Optional :class:`ResultCache`; hits skip simulation.
        timeout: Per-cell seconds before a parallel attempt is
            abandoned and its pool replaced (None = wait forever).
            Serial execution never times out.
        retries: Bounded resubmissions per cell (after a failure, a
            timeout or a lost worker) before degrading to serial
            execution.
        progress: Optional per-cell callback (human-readable lines).
        runner: Cell executor override (tests inject failures here);
            defaults to :func:`simulate_cell`.
        heartbeat: Optional live-telemetry callback receiving one
            :class:`~repro.obs.progress.Heartbeat` per completed cell
            in *completion* order (cache hits included) -- what the
            CLI's ``--progress`` meter consumes.

    Returns:
        ``(result, profile)`` -- the deterministic
        :class:`ExperimentResult` (cell order fixed by ``configs`` /
        ``workloads``, independent of completion order) and the
        :class:`~repro.obs.profiling.CampaignProfile` of cache hits,
        retries, timeouts, fallbacks, and throughput.

    Raises:
        ValueError: for a non-positive ``jobs`` or negative
            ``retries``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    runner = runner or simulate_cell
    profile = CampaignProfile(jobs=jobs)
    started = time.perf_counter()

    cells = [
        CampaignCell(machine, config, workload, max_instructions)
        for machine, config in configs.items()
        for workload in workloads
    ]

    # Cache probe (deterministic order; hits never hit the pool).
    stats_by_index: dict[int, SimStats] = {}
    misses: list[tuple[int, CampaignCell]] = []
    keys: dict[int, str] = {}
    for index, cell in enumerate(cells):
        if cache is not None:
            keys[index] = cache_key(
                cell.config, cell.workload, cell.max_instructions
            )
            hit = cache.load(keys[index])
            if hit is not None:
                stats_by_index[index] = hit
                profile.note_cell(cell.label, 0.0, hit.committed,
                                  source="cache")
                if progress:
                    progress(f"{cell.label}: cache hit")
                if heartbeat:
                    heartbeat(Heartbeat(label=cell.label, source="cache"))
                continue
        misses.append((index, cell))

    def beat(cell: CampaignCell, payload: dict) -> None:
        if heartbeat:
            heartbeat(Heartbeat(
                label=cell.label,
                source="simulated",
                seconds=payload.get("seconds", 0.0),
                instructions=payload.get("stats", {}).get("committed", 0),
            ))

    # Execute the misses.
    if misses:
        with worker_pool(jobs, profile.registry) as pool:
            payloads = run_cells(
                [cell for _, cell in misses], runner, pool, timeout,
                retries, profile.registry, progress, on_done=beat,
            )
        # Fold worker metrics in *presentation* order -- the misses
        # list is already sorted by cell index, so the merged snapshot
        # is byte-identical for jobs=1, jobs=N, and any completion
        # order (MetricsSnapshot.merge_all makes even adversarial
        # orderings equal; this keeps the live registry exact too).
        for (index, cell), payload in zip(misses, payloads):
            stats = SimStats.from_dict(payload["stats"])
            stats_by_index[index] = stats
            profile.note_cell(cell.label, payload["seconds"],
                              stats.committed)
            profile.merge_worker_snapshot(payload.get("metrics"))
            if cache is not None:
                cache.store(keys[index], stats)

    # Deterministic merge: presentation order, never completion order.
    result = ExperimentResult(
        name=name, machine_names=list(configs), workloads=list(workloads)
    )
    for index, cell in enumerate(cells):
        result.stats.setdefault(cell.machine, {})[cell.workload] = (
            stats_by_index[index]
        )
    profile.wall_seconds = time.perf_counter() - started
    return result, profile
