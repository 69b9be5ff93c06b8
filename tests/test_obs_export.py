"""Smoke tests for the trace/metrics exporters and the ``repro trace`` CLI."""

import json

import pytest

from repro.cli import main
from repro.core.machines import baseline_8way, clustered_dependence_8way
from repro.obs import (
    EventTracer,
    chrome_trace,
    metrics_dict,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.export import validate_metrics
from repro.uarch.pipeline import PipelineSimulator
from repro.workloads import get_trace

LIFECYCLE = ("frontend", "window", "commit-wait")


def traced_stats(config=None, workload="gcc", length=1_000):
    tracer = EventTracer()
    simulator = PipelineSimulator(
        config or baseline_8way(), get_trace(workload, length), tracer=tracer
    )
    stats = simulator.run()
    return tracer, stats


class TestTraceCliSmoke:
    """Tier-1 acceptance: ``repro trace`` on 200 synthetic instructions
    yields schema-valid Chrome JSON with complete, ordered chains."""

    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace") / "trace.json"
        exit_code = main(
            ["trace", "synthetic", "-n", "200", "--out", str(out)]
        )
        assert exit_code == 0
        return json.loads(out.read_text(encoding="utf-8"))

    def test_schema_valid(self, payload):
        validate_chrome_trace(payload)
        assert payload["traceEvents"]

    def test_embeds_validated_stats(self, payload):
        stats = payload["metadata"]["repro-stats"]
        assert stats["committed"] == 200

    def test_chains_complete_and_ordered(self, payload):
        """Every committed instruction has frontend -> window ->
        commit-wait spans in non-decreasing timestamp order."""
        spans: dict[int, dict[str, int]] = {}
        for event in payload["traceEvents"]:
            if event["ph"] == "X" and event["name"] in LIFECYCLE:
                spans.setdefault(event["tid"], {})[event["name"]] = event["ts"]
        committed = payload["metadata"]["repro-stats"]["committed"]
        assert len(spans) == committed
        for seq, stages in spans.items():
            assert set(stages) == set(LIFECYCLE), f"instruction {seq}"
            starts = [stages[name] for name in LIFECYCLE]
            assert starts == sorted(starts), f"instruction {seq}: {starts}"

    def test_events_sorted_by_timestamp(self, payload):
        timed = [e["ts"] for e in payload["traceEvents"] if e["ph"] != "M"]
        assert timed == sorted(timed)


class TestChromeTraceStructure:
    def test_instants_and_spans(self):
        tracer, stats = traced_stats()
        payload = chrome_trace(tracer.events, stats=stats)
        validate_chrome_trace(payload)
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert phases == {"X", "i", "M"}

    def test_cluster_becomes_pid(self):
        tracer, _ = traced_stats(clustered_dependence_8way())
        payload = chrome_trace(tracer.events)
        pids = {
            e["pid"] for e in payload["traceEvents"] if e["ph"] != "M"
        }
        assert pids == {0, 1}
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["name"] == "process_name"
        }
        assert names == {"cluster 0", "cluster 1"}

    def test_thread_names_carry_opcode(self):
        tracer, _ = traced_stats(length=200)
        payload = chrome_trace(tracer.events)
        thread_names = [
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["name"] == "thread_name"
        ]
        assert thread_names
        assert all(name.startswith("i") for name in thread_names)

    def test_write_round_trips_through_json(self, tmp_path):
        tracer, stats = traced_stats(length=300)
        path = tmp_path / "out.json"
        payload = write_chrome_trace(path, tracer.events, stats=stats)
        assert json.loads(path.read_text(encoding="utf-8")) == json.loads(
            json.dumps(payload)
        )

    def test_event_chains_groups_by_seq(self):
        # Each committed instruction's chain ends in one commit-wait
        # span on its own thread (tid = seq).
        tracer, stats = traced_stats(length=200)
        payload = chrome_trace(tracer.events, stats=stats)
        tids = [
            event["tid"] for event in payload["traceEvents"]
            if event["name"] == "commit-wait"
        ]
        assert sorted(tids) == list(range(stats.committed))


class TestChromeTraceValidator:
    def _minimal(self):
        return {
            "traceEvents": [
                {"name": "x", "ph": "i", "s": "t", "ts": 0,
                 "pid": 0, "tid": 0, "args": {}},
            ],
        }

    def test_accepts_minimal(self):
        validate_chrome_trace(self._minimal())

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"displayTimeUnit": "ms"})

    def test_rejects_missing_required_key(self):
        payload = self._minimal()
        del payload["traceEvents"][0]["pid"]
        with pytest.raises(ValueError, match="pid"):
            validate_chrome_trace(payload)

    def test_rejects_bad_phase(self):
        payload = self._minimal()
        payload["traceEvents"][0]["ph"] = "Z"
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace(payload)

    def test_rejects_negative_timestamp(self):
        payload = self._minimal()
        payload["traceEvents"][0]["ts"] = -4
        with pytest.raises(ValueError, match="ts"):
            validate_chrome_trace(payload)

    def test_rejects_span_without_duration(self):
        payload = self._minimal()
        payload["traceEvents"][0]["ph"] = "X"
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(payload)

    def test_rejects_bad_instant_scope(self):
        payload = self._minimal()
        payload["traceEvents"][0]["s"] = "q"
        with pytest.raises(ValueError, match="scope"):
            validate_chrome_trace(payload)


class TestMetricsExport:
    def test_metrics_payload_validates(self):
        _, stats = traced_stats(length=500)
        payload = metrics_dict(stats)
        validate_metrics(payload)
        assert payload["derived"]["ipc"] == stats.ipc

    def test_write_metrics_json(self, tmp_path):
        _, stats = traced_stats(length=500)
        path = tmp_path / "metrics.json"
        write_metrics_json(path, stats)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        validate_metrics(loaded)
        assert loaded["stats"]["committed"] == stats.committed

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="repro-metrics"):
            validate_metrics({"kind": "something-else"})

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="format"):
            validate_metrics({"kind": "repro-metrics", "format_version": 99})

    def test_simulate_cli_writes_metrics(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        exit_code = main(
            ["simulate", "baseline", "synthetic", "-n", "300",
             "-v", "--json", str(out)]
        )
        assert exit_code == 0
        validate_metrics(json.loads(out.read_text(encoding="utf-8")))
        printed = capsys.readouterr().out
        assert "active" in printed and "attributed" in printed


class TestSnapshotExporters:
    """Degenerate-input hardening for the snapshot exporters."""

    def test_empty_registry_prometheus_text(self):
        from repro.obs.export import prometheus_text
        from repro.obs.metrics import MetricsRegistry

        assert prometheus_text(MetricsRegistry().snapshot()) == ""

    def test_empty_registry_json_write(self, tmp_path):
        from repro.obs.export import write_snapshot_json
        from repro.obs.metrics import MetricsRegistry

        path = tmp_path / "snapshot.json"
        payload = write_snapshot_json(path, MetricsRegistry().snapshot())
        assert payload["metrics"] == {}
        assert json.loads(path.read_text()) == payload

    def test_empty_trace_chrome_trace(self):
        payload = chrome_trace([])
        validate_chrome_trace(payload)
        assert payload["traceEvents"] == []

    def test_unicode_workload_labels_round_trip(self, tmp_path):
        from repro.obs.export import prometheus_text, write_snapshot_json
        from repro.obs.metrics import MetricsRegistry, MetricsSnapshot

        registry = MetricsRegistry()
        registry.counter("campaign_cells_total").inc(
            2, {"workload": "göç-程序"})
        snapshot = registry.snapshot()

        text = prometheus_text(snapshot)
        assert 'workload="göç-程序"' in text

        path = tmp_path / "snapshot.json"
        write_snapshot_json(path, snapshot)
        raw = path.read_text(encoding="utf-8")
        assert "göç-程序" in raw  # ensure_ascii=False: no \u escapes
        clone = MetricsSnapshot.from_dict(json.loads(raw))
        assert clone == snapshot

    def test_label_values_escaped(self):
        from repro.obs.export import prometheus_text
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("c").inc(1, {"name": 'a"b\\c\nd'})
        assert '{name="a\\"b\\\\c\\nd"}' in prometheus_text(registry.snapshot())

    def test_histogram_exposition_is_cumulative(self):
        from repro.obs.export import prometheus_text
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 9.0):
            histogram.observe(value)
        text = prometheus_text(registry.snapshot())
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 2' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_count 3" in text

    def test_validate_rejects_foreign_payload(self):
        from repro.obs.export import validate_snapshot_payload

        with pytest.raises(ValueError):
            validate_snapshot_payload({"kind": "not-a-snapshot"})


class TestMergeOrderByteIdentical:
    """Satellite acceptance: both exporters emit byte-identical output
    for either merge order of two worker snapshots."""

    def worker_snapshots(self):
        from repro.obs.metrics import MetricsRegistry

        snapshots = []
        for index, seconds in enumerate((0.125, 0.375)):
            registry = MetricsRegistry()
            registry.counter("campaign_cells_total").inc(
                1, {"source": "simulated"})
            registry.counter("sim_wall_seconds_total").inc(seconds)
            registry.gauge("sim_ipc").set(1.0 + index)
            registry.histogram(
                "campaign_cell_seconds", buckets=(0.25,)).observe(seconds)
            snapshots.append(registry.snapshot())
        return snapshots

    def test_prometheus_text_order_independent(self):
        from repro.obs.export import prometheus_text
        from repro.obs.metrics import MetricsSnapshot

        a, b = self.worker_snapshots()
        forward = prometheus_text(MetricsSnapshot.merge_all([a, b]))
        reverse = prometheus_text(MetricsSnapshot.merge_all([b, a]))
        assert forward == reverse
        assert 'campaign_cells_total{source="simulated"} 2' in forward

    def test_json_write_order_independent(self, tmp_path):
        from repro.obs.export import write_snapshot_json
        from repro.obs.metrics import MetricsSnapshot

        a, b = self.worker_snapshots()
        write_snapshot_json(tmp_path / "ab.json",
                            MetricsSnapshot.merge_all([a, b]))
        write_snapshot_json(tmp_path / "ba.json",
                            MetricsSnapshot.merge_all([b, a]))
        assert ((tmp_path / "ab.json").read_bytes()
                == (tmp_path / "ba.json").read_bytes())
