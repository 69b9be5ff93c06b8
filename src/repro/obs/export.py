"""Exporters for traces and metrics.

* :func:`chrome_trace` converts tracer events into the Chrome
  ``trace_event`` JSON format (the "JSON Array Format" with
  ``traceEvents``), which Perfetto and chrome://tracing open
  directly.  One timeline row (``tid``) per dynamic instruction, one
  process (``pid``) per cluster; stage spans are complete ("X")
  events and point events (wakeup, bypass, squash) are instants.
  Cycles are exported as microseconds, so "1 us" in the viewer reads
  as one machine cycle.
* :func:`metrics_dict` packages a :class:`~repro.uarch.stats.SimStats`
  (via its audited ``to_dict``) with derived ratios for benchmark
  harnesses and dashboards.
* :func:`prometheus_text` / :func:`snapshot_payload` export a
  :class:`~repro.obs.metrics.MetricsSnapshot` as Prometheus text
  exposition format and as versioned JSON.  Both are deterministic:
  the same snapshot always produces the same bytes, and
  :meth:`~repro.obs.metrics.MetricsSnapshot.merge_all` is
  order-independent, so the exports of a merged campaign are
  byte-identical regardless of worker arrival order.

All formats have validators (:func:`validate_chrome_trace`,
:func:`validate_metrics`, :func:`validate_snapshot_payload`) used by
the CLI and the smoke tests.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.events import EventKind, TraceEvent
from repro.obs.metrics import MetricsSnapshot, _labels_from_key
from repro.uarch.stats import SimStats

#: Format marker embedded in metrics payloads.
METRICS_FORMAT_VERSION = 1

#: Instant-event kinds exported as Chrome "i" events.
_INSTANT_KINDS = {
    EventKind.WAKEUP,
    EventKind.BYPASS,
    EventKind.SQUASH,
    EventKind.RENAME,
    EventKind.STEER,
    EventKind.SELECT,
}

#: Stage spans derived from lifecycle events: name -> (start, end).
_SPAN_STAGES = (
    ("frontend", EventKind.FETCH, EventKind.DISPATCH),
    ("window", EventKind.DISPATCH, EventKind.ISSUE),
    ("commit-wait", EventKind.ISSUE, EventKind.COMMIT),
)


def chrome_trace(
    events: list[TraceEvent], stats: SimStats | None = None
) -> dict:
    """Build a Chrome ``trace_event`` payload from tracer events.

    Args:
        events: Events from an :class:`~repro.obs.events.EventTracer`.
        stats: Optional run statistics, embedded as ``metadata``.

    Returns:
        A JSON-ready dict with ``traceEvents`` (sorted by timestamp)
        and ``displayTimeUnit``.
    """
    trace_events: list[dict] = []
    first_cycle: dict[tuple[int, EventKind], int] = {}
    labels: dict[int, str] = {}
    pids: set[int] = set()
    for event in events:
        pid = max(event.cluster, 0)
        pids.add(pid)
        key = (event.seq, event.kind)
        if key not in first_cycle:
            first_cycle[key] = event.cycle
        if event.kind is EventKind.FETCH and event.detail:
            labels[event.seq] = event.detail
        if event.kind in _INSTANT_KINDS:
            trace_events.append(
                {
                    "name": event.kind.value,
                    "ph": "i",
                    "s": "t",
                    "ts": event.cycle,
                    "pid": pid,
                    "tid": event.seq,
                    "args": {"detail": event.detail},
                }
            )
        elif event.kind is EventKind.EXECUTE:
            trace_events.append(
                {
                    "name": "execute",
                    "ph": "X",
                    "ts": event.cycle,
                    "dur": max(event.dur, 0),
                    "pid": pid,
                    "tid": event.seq,
                    "args": {"detail": event.detail},
                }
            )
    # Stage spans between lifecycle milestones (emitted per
    # instruction that reached the later milestone inside the ring).
    for name, start_kind, end_kind in _SPAN_STAGES:
        for (seq, kind), cycle in first_cycle.items():
            if kind is not end_kind:
                continue
            start = first_cycle.get((seq, start_kind))
            if start is None:
                continue
            trace_events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": start,
                    "dur": max(cycle - start, 0),
                    "pid": 0,
                    "tid": seq,
                    "args": {},
                }
            )
    for seq, opcode in labels.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": 0,
                "tid": seq,
                "args": {"name": f"i{seq} {opcode}"},
            }
        )
    for pid in sorted(pids):
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": f"cluster {pid}"},
            }
        )
    trace_events.sort(
        key=lambda e: (-1 if e["ph"] == "M" else e["ts"], e["tid"])
    )
    payload: dict = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    }
    if stats is not None:
        payload["metadata"] = {"repro-stats": stats.to_dict()}
    return payload


def validate_chrome_trace(payload: dict) -> None:
    """Check a payload is structurally valid Chrome trace JSON.

    Raises:
        ValueError: describing the first problem found.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload must have a 'traceEvents' list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"{where} missing required key {key!r}")
        if not isinstance(event["name"], str):
            raise ValueError(f"{where} name must be a string")
        phase = event["ph"]
        if phase not in ("X", "i", "M", "B", "E", "C"):
            raise ValueError(f"{where} has unsupported phase {phase!r}")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, int) or ts < 0:
                raise ValueError(f"{where} ts must be a non-negative integer")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                raise ValueError(f"{where} dur must be a non-negative integer")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            raise ValueError(f"{where} instant scope must be t/p/g")
        if not isinstance(event.get("args", {}), dict):
            raise ValueError(f"{where} args must be an object")
    json.dumps(payload)  # must be serialisable


def write_chrome_trace(
    path: str | Path, events: list[TraceEvent], stats: SimStats | None = None
) -> dict:
    """Export, validate, and write a Chrome trace; returns the payload."""
    payload = chrome_trace(events, stats=stats)
    validate_chrome_trace(payload)
    Path(path).write_text(
        json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8"
    )
    return payload


def metrics_dict(stats: SimStats) -> dict:
    """Machine-readable metrics payload for one simulation run."""
    return {
        "format_version": METRICS_FORMAT_VERSION,
        "kind": "repro-metrics",
        "stats": stats.to_dict(),
        "derived": {
            "ipc": stats.ipc,
            "branch_accuracy": stats.branch_accuracy,
            "cache_miss_rate": stats.cache_miss_rate,
            "mean_occupancy": stats.mean_occupancy,
            "inter_cluster_bypass_frequency":
                stats.inter_cluster_bypass_frequency,
        },
    }


def validate_metrics(payload: dict) -> None:
    """Check (and round-trip) a metrics payload.

    Raises:
        ValueError: on structural problems, unknown stall causes, or
        stats that fail :meth:`SimStats.validate`.
    """
    if payload.get("kind") != "repro-metrics":
        raise ValueError("not a repro-metrics payload")
    if payload.get("format_version") != METRICS_FORMAT_VERSION:
        raise ValueError(
            f"unsupported metrics format {payload.get('format_version')!r}"
        )
    SimStats.from_dict(payload["stats"]).validate()


def write_metrics_json(path: str | Path, stats: SimStats) -> dict:
    """Export, validate, and write metrics JSON; returns the payload."""
    payload = metrics_dict(stats)
    validate_metrics(payload)
    Path(path).write_text(
        json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8"
    )
    return payload


# ----------------------------------------------------------------------
# metrics-snapshot exporters (Prometheus text + versioned JSON)
# ----------------------------------------------------------------------


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _format_value(value) -> str:
    """Deterministic sample formatting: ints bare, floats via repr."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _series(name: str, labels, extra: tuple = ()) -> str:
    """One ``name{key="value",...}`` series head."""
    pairs = list(labels) + list(extra)
    if not pairs:
        return name
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in pairs
    )
    return f"{name}{{{inner}}}"


def prometheus_text(snapshot: MetricsSnapshot) -> str:
    """A snapshot in the Prometheus text exposition format.

    Deterministic: metrics sort by name, samples by canonical label
    key, and histograms export cumulative ``_bucket`` series plus
    ``_sum``/``_count`` -- so byte comparison is a valid equality
    check for merged snapshots.
    """
    lines: list[str] = []
    for name in sorted(snapshot.metrics):
        entry = snapshot.metrics[name]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['kind']}")
        if entry["kind"] == "histogram":
            bounds = entry["buckets"]
            for key, data in entry["samples"].items():
                labels = _labels_from_key(key)
                cumulative = 0
                for bound, count in zip(bounds, data["counts"]):
                    cumulative += count
                    lines.append(
                        f"{_series(name + '_bucket', labels, (('le', _format_value(float(bound))),))}"
                        f" {cumulative}"
                    )
                cumulative += data["counts"][-1]
                lines.append(
                    f"{_series(name + '_bucket', labels, (('le', '+Inf'),))}"
                    f" {cumulative}"
                )
                lines.append(
                    f"{_series(name + '_sum', labels)} "
                    f"{_format_value(data['sum'])}"
                )
                lines.append(
                    f"{_series(name + '_count', labels)} {data['count']}"
                )
        else:
            for key, value in entry["samples"].items():
                labels = _labels_from_key(key)
                lines.append(f"{_series(name, labels)} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_payload(snapshot: MetricsSnapshot) -> dict:
    """A snapshot as its versioned JSON document."""
    return snapshot.to_dict()


def validate_snapshot_payload(payload: dict) -> None:
    """Round-trip a snapshot payload; raises ValueError on problems."""
    snapshot = MetricsSnapshot.from_dict(payload)
    prometheus_text(snapshot)  # every entry must render
    json.dumps(payload)  # and serialise


def write_snapshot_json(path: str | Path, snapshot: MetricsSnapshot) -> dict:
    """Validate and write a snapshot's JSON document; returns it."""
    payload = snapshot_payload(snapshot)
    validate_snapshot_payload(payload)
    Path(path).write_text(
        json.dumps(payload, indent=1, sort_keys=True, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )
    return payload


def write_prometheus_text(path: str | Path,
                          snapshot: MetricsSnapshot) -> str:
    """Write a snapshot in Prometheus text format; returns the text."""
    text = prometheus_text(snapshot)
    Path(path).write_text(text, encoding="utf-8")
    return text
