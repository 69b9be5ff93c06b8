"""Tests for the metrics registry and snapshot/merge semantics.

The acceptance property for the whole backbone lives here: merging
two (or N) worker snapshots is **byte-identical regardless of
arrival order**, so parallel campaigns report exact metrics.
"""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    canonical_labels,
    format_snapshot,
)


class TestLabels:
    def test_canonical_labels_sorted_pairs(self):
        assert canonical_labels({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))

    def test_empty_and_none_are_unlabeled(self):
        assert canonical_labels(None) == ()
        assert canonical_labels({}) == ()

    def test_invalid_label_name_rejected(self):
        with pytest.raises(ValueError, match="label name"):
            canonical_labels({"not-valid": 1})

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError, match="metric name"):
            MetricsRegistry().counter("bad-name")


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("cells_total", "help text")
        counter.inc(2, {"source": "cache"})
        counter.inc(1, {"source": "cache"})
        counter.inc(5, {"source": "simulated"})
        assert counter.value({"source": "cache"}) == 3
        assert counter.value({"source": "simulated"}) == 5
        assert counter.value({"source": "unknown"}) == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            MetricsRegistry().counter("c").inc(-1)

    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("c", "x") is registry.counter("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("c")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("c")


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(4.5)
        gauge.set(2.0)
        assert gauge.value() == 2.0

    def test_non_finite_rejected(self):
        gauge = MetricsRegistry().gauge("g")
        with pytest.raises(ValueError, match="finite"):
            gauge.set(float("nan"))
        with pytest.raises(ValueError, match="finite"):
            gauge.set(float("inf"))


class TestHistogram:
    def test_observations_bucketed_with_overflow(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        sample = histogram.samples[()]
        assert sample.counts == [2, 1, 1]  # <=1, <=10, overflow
        assert sample.count == 4
        assert sample.total == pytest.approx(106.5)

    def test_buckets_must_strictly_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("h2", buckets=())

    def test_bucket_mismatch_on_reregistration_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_default_buckets(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.buckets == DEFAULT_SECONDS_BUCKETS


class TestSnapshot:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("cells_total", "cells").inc(3, {"source": "cache"})
        registry.gauge("ipc").set(1.25, {"machine": "baseline"})
        registry.histogram("seconds", buckets=(0.1, 1.0)).observe(0.05)
        return registry

    def test_round_trip(self):
        snapshot = self.make_registry().snapshot()
        clone = MetricsSnapshot.from_dict(
            json.loads(json.dumps(snapshot.to_dict()))
        )
        assert clone == snapshot
        assert clone.canonical_json() == snapshot.canonical_json()

    def test_foreign_payload_rejected(self):
        with pytest.raises(ValueError, match="not a metrics snapshot"):
            MetricsSnapshot.from_dict({"kind": "other"})
        with pytest.raises(ValueError, match="schema"):
            MetricsSnapshot.from_dict(
                {"kind": "repro-metrics-snapshot", "schema": 999}
            )
        with pytest.raises(ValueError, match="JSON object"):
            MetricsSnapshot.from_dict([1, 2])

    def test_merge_semantics(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(5.0)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.counter("c").inc(3)
        b.gauge("g").set(2.0)
        b.histogram("h", buckets=(1.0,)).observe(7.0)

        merged = MetricsRegistry()
        merged.merge_snapshot(a.snapshot())
        merged.merge_snapshot(b.snapshot())
        assert merged.value("c") == 5  # counters add
        assert merged.value("g") == 5.0  # gauges take the max
        sample = merged.labeled_values("c")  # counters only
        assert sample[()] == 5
        snapshot = merged.snapshot()
        histogram = snapshot.metrics["h"]["samples"]["[]"]
        assert histogram["counts"] == [1, 1]
        assert histogram["count"] == 2

    def test_merge_bucket_mismatch_raises(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        target = MetricsRegistry()
        target.merge_snapshot(a.snapshot())
        with pytest.raises(ValueError, match="buckets"):
            target.merge_snapshot(b.snapshot())

    def test_unknown_kind_rejected_on_merge(self):
        snapshot = MetricsSnapshot(
            {"x": {"kind": "mystery", "help": "", "samples": {}}}
        )
        with pytest.raises(ValueError, match="unknown metric kind"):
            MetricsRegistry().merge_snapshot(snapshot)


class TestOrderIndependentMerge:
    """PR acceptance: worker-snapshot merges are byte-identical for
    every arrival order, including float-valued samples where naive
    fold order would change the bits."""

    def worker_snapshots(self):
        snapshots = []
        # Float values chosen so (a + b) + c != a + (b + c) bitwise.
        for seconds in (0.1, 0.2, 0.3, 1e-9):
            registry = MetricsRegistry()
            registry.counter("sim_wall_seconds_total").inc(seconds)
            registry.counter("cells_total").inc(1, {"source": "simulated"})
            registry.gauge("ipc").set(seconds * 10)
            registry.histogram("cell_seconds",
                               buckets=(0.15, 0.25)).observe(seconds)
            snapshots.append(registry.snapshot())
        return snapshots

    def test_two_worker_merge_byte_identical(self):
        a, b = self.worker_snapshots()[:2]
        forward = MetricsSnapshot.merge_all([a, b]).canonical_json()
        reverse = MetricsSnapshot.merge_all([b, a]).canonical_json()
        assert forward == reverse

    def test_every_permutation_byte_identical(self):
        import itertools

        snapshots = self.worker_snapshots()
        reference = MetricsSnapshot.merge_all(snapshots).canonical_json()
        for order in itertools.permutations(snapshots):
            assert MetricsSnapshot.merge_all(order).canonical_json() == (
                reference
            )

    def test_pairwise_merge_matches_merge_all(self):
        a, b = self.worker_snapshots()[:2]
        assert a.merge(b) == MetricsSnapshot.merge_all([b, a])


class TestFormatting:
    def test_empty_snapshot_renders_placeholder(self):
        text = format_snapshot(MetricsRegistry().snapshot())
        assert "(no metrics recorded)" in text

    def test_series_render_with_labels_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("cells_total").inc(4, {"source": "cache"})
        registry.histogram("seconds", buckets=(1.0,)).observe(0.5)
        text = format_snapshot(registry.snapshot())
        assert 'cells_total{source="cache"}' in text
        assert "count=1" in text

