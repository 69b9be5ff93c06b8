"""Persist simulation results as JSON.

Two documents: one campaign cache cell (:func:`stats_payload`, read
back by :func:`stats_from_payload`), and a whole
:class:`~repro.core.experiments.ExperimentResult` with full per-run
statistics (:func:`save_result`, for archiving and diffing; each run's
stats load back with :meth:`~repro.uarch.stats.SimStats.from_dict`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.experiments import ExperimentResult
from repro.uarch.stats import SimStats

#: Format marker of the stats payload.  Version 2 added the
#: cycle-attribution fields (``active_cycles``/``stall_cycles``);
#: version 3 added ``clock_ps``.  Every cache key hashes it, so a cell
#: file of another version is a corrupt entry, never a reusable one.
FORMAT_VERSION = 3


def stats_payload(stats: SimStats) -> dict:
    """Wrap one run's stats as a self-describing, versioned document.

    This is the on-disk format of a single campaign cache cell (see
    :mod:`repro.core.campaign`): the ``SimStats.to_dict`` payload under
    a ``kind`` marker and the module :data:`FORMAT_VERSION`, so stale
    or foreign files are rejected by :func:`stats_from_payload` rather
    than misread.
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": "repro-cell-stats",
        "stats": stats.to_dict(),
    }


def stats_from_payload(payload: dict) -> SimStats:
    """Inverse of :func:`stats_payload`.

    Raises:
        ValueError: if the payload is not a cell-stats document of
            :data:`FORMAT_VERSION`.
    """
    if not isinstance(payload, dict):
        raise ValueError("cell payload must be a JSON object")
    if payload.get("kind") != "repro-cell-stats":
        raise ValueError(f"not a cell-stats payload: {payload.get('kind')!r}")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported cell-stats format {payload.get('format_version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return SimStats.from_dict(payload["stats"])


def result_to_dict(result: ExperimentResult) -> dict:
    """Convert an experiment result to JSON-ready primitives."""
    return {
        "format_version": FORMAT_VERSION,
        "name": result.name,
        "machine_names": list(result.machine_names),
        "workloads": list(result.workloads),
        "stats": {
            machine: {
                workload: stats.to_dict()
                for workload, stats in per_workload.items()
            }
            for machine, per_workload in result.stats.items()
        },
    }


def save_result(result: ExperimentResult, path: str | Path) -> None:
    """Write an experiment result to a JSON file."""
    Path(path).write_text(
        json.dumps(result_to_dict(result), indent=2, sort_keys=True),
        encoding="utf-8",
    )
