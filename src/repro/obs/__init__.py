"""Observability for the timing simulator.

The unified metrics backbone plus the original tracing tools, all
optional and zero-cost when unused:

* :mod:`repro.obs.metrics` -- the metrics registry
  (counters, gauges, histograms) with deterministic snapshot/merge
  semantics: multiprocessing campaign workers each accumulate a
  :class:`MetricsSnapshot` that the parent merges *exactly*,
  independent of completion order.
* :mod:`repro.obs.ledger` -- the run ledger: append-only JSONL
  history of every simulate/campaign/frontier/fuzz invocation (git
  SHA, config hash, throughput, cache accounting, metrics snapshot),
  and :func:`record_bench`, the single path that writes the repo-root
  ``BENCH_*.json`` records.
* :mod:`repro.obs.regression` -- the perf-regression tracker behind
  ``repro bench --check``: committed floors + the ledger's trailing
  window.
* :mod:`repro.obs.progress` -- live campaign telemetry: per-cell
  :class:`Heartbeat` events consumed by the ``--progress`` meter.
* :mod:`repro.obs.events` -- a structured event tracer: the pipeline
  emits typed per-instruction lifecycle events (fetch, rename,
  dispatch, steer, wakeup, select, issue, execute, bypass, commit,
  squash) into a bounded ring buffer when a tracer is attached.
* :mod:`repro.obs.export` -- exporters: Chrome ``trace_event`` JSON
  (open in Perfetto or chrome://tracing), machine-readable metrics
  JSON, and Prometheus text / snapshot JSON for registry snapshots,
  each with a validator.
* :mod:`repro.obs.profiling` -- host-profiling harnesses (single-run
  stage timing, campaign and fuzz profiles), all thin views over the
  metrics registry.

See ``docs/observability.md`` for schemas and workflows.
"""

from repro.obs.events import EventKind, EventTracer, TraceEvent
from repro.obs.export import (
    chrome_trace,
    metrics_dict,
    prometheus_text,
    snapshot_payload,
    validate_chrome_trace,
    validate_snapshot_payload,
    write_chrome_trace,
    write_metrics_json,
    write_prometheus_text,
    write_snapshot_json,
)
from repro.obs.ledger import (
    Ledger,
    LedgerEntry,
    record_bench,
    record_profile,
    record_run,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    format_snapshot,
)
from repro.obs.profiling import (
    CampaignProfile,
    CellTiming,
    FuzzProfile,
    ProfileReport,
    profile_simulation,
    record_simulation_metrics,
)
from repro.obs.progress import Heartbeat, ProgressMeter

__all__ = [
    "EventKind",
    "EventTracer",
    "TraceEvent",
    "chrome_trace",
    "metrics_dict",
    "prometheus_text",
    "snapshot_payload",
    "validate_chrome_trace",
    "validate_snapshot_payload",
    "write_chrome_trace",
    "write_metrics_json",
    "write_prometheus_text",
    "write_snapshot_json",
    "Ledger",
    "LedgerEntry",
    "record_bench",
    "record_profile",
    "record_run",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "format_snapshot",
    "CampaignProfile",
    "CellTiming",
    "FuzzProfile",
    "ProfileReport",
    "profile_simulation",
    "record_simulation_metrics",
    "Heartbeat",
    "ProgressMeter",
]
