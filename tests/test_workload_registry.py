"""Tests for the first-class workload registry and the synthetic zoo.

Satellite guarantees: the registry holds the full roster (paper
kernels first, in figure order), every registered workload traces and
simulates under a small budget (the registry-wide smoke), content
fingerprints are stable-yet-sensitive, and three zoo scenarios carry
golden IPC pins on the baseline and the clustered dependence-based
machine so zoo generator changes trip a reviewed test, exactly like
the paper kernels.
"""

import dataclasses

import pytest

from repro.core.machines import baseline_8way, clustered_dependence_8way
from repro.uarch.pipeline import simulate
from repro.workloads import (
    WORKLOAD_NAMES,
    build_extra_program,
    build_program,
    get_trace,
)
from repro.workloads.registry import (
    WORKLOAD_KINDS,
    WORKLOAD_REGISTRY,
    Workload,
    canonical_synthetic_content,
    get_workload,
    register_workload,
    workload_identity,
    workload_names,
)
from repro.workloads.zoo import ZOO_NAMES, ZOO_SCENARIOS, zoo_config


class TestRegistryRoster:
    def test_registry_holds_the_full_roster(self):
        # 7 paper kernels + dct/qsort + the zoo: the acceptance floor.
        assert len(WORKLOAD_REGISTRY) >= 19

    def test_paper_kernels_come_first_in_figure_order(self):
        assert workload_names()[: len(WORKLOAD_NAMES)] == WORKLOAD_NAMES

    def test_kind_partition(self):
        kernels = workload_names("kernel")
        synthetic = workload_names("synthetic")
        assert set(WORKLOAD_NAMES) <= set(kernels)
        assert {"dct", "qsort"} <= set(kernels)
        assert set(ZOO_NAMES) == set(synthetic)
        for workload in WORKLOAD_REGISTRY.values():
            assert workload.kind in WORKLOAD_KINDS
            assert workload.description

    def test_zoo_covers_the_three_axes(self):
        assert len(ZOO_NAMES) >= 12
        assert all(name.startswith("zoo_") for name in ZOO_NAMES)
        for axis in ("zoo_ilp_", "zoo_br_", "zoo_mem_"):
            assert sum(1 for name in ZOO_NAMES
                       if name.startswith(axis)) >= 3

    def test_get_workload_names_the_unknowns(self):
        with pytest.raises(KeyError, match="unknown workload 'foo'"):
            get_workload("foo")

    def test_duplicate_registration_rejected(self):
        existing = get_workload("li")
        with pytest.raises(ValueError, match="already registered"):
            register_workload(existing)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            Workload("x", "binary", "", lambda n: None, lambda: b"")


class TestFingerprints:
    def test_fingerprints_are_stable_and_distinct(self):
        prints = {name: w.fingerprint()
                  for name, w in WORKLOAD_REGISTRY.items()}
        assert prints == {name: w.fingerprint()
                          for name, w in WORKLOAD_REGISTRY.items()}
        assert len(set(prints.values())) == len(prints)

    def test_kernel_fingerprint_tracks_source_edits(self, monkeypatch):
        from repro.workloads import li

        original = li.source()
        before = get_workload("li").fingerprint()
        monkeypatch.setattr(li, "source", lambda: original + "\n# x\n")
        assert get_workload("li").fingerprint() != before

    def test_trace_tracks_source_edits(self, monkeypatch):
        from repro.workloads import compress, li

        def stream(name):
            return [(inst.pc, inst.opcode)
                    for inst in get_trace(name, 500).insts]

        before = stream("li")
        assert before != stream("compress")
        monkeypatch.setattr(li, "source", compress.source)
        assert stream("li") == stream("compress")
        monkeypatch.undo()
        assert stream("li") == before

    def test_identity_shape(self):
        identity = get_workload("zoo_br_coin").identity()
        assert set(identity) == {"kind", "fingerprint"}
        assert identity["kind"] == "synthetic"

    def test_workload_identity_is_total(self):
        fallback = workload_identity("not-registered")
        assert fallback["kind"] == "unregistered"
        assert fallback["fingerprint"] == "not-registered"

    def test_synthetic_content_excludes_length(self):
        config = zoo_config("zoo_ilp_wide")
        longer = dataclasses.replace(config, length=999_999)
        assert (canonical_synthetic_content(config)
                == canonical_synthetic_content(longer))
        reseeded = dataclasses.replace(config, seed=config.seed + 1)
        assert (canonical_synthetic_content(config)
                != canonical_synthetic_content(reseeded))


class TestRegistryWideSmoke:
    """Every registered workload traces and simulates under budget."""

    @pytest.mark.parametrize("name", sorted(WORKLOAD_REGISTRY))
    def test_traces_and_simulates(self, name):
        budget = 400
        trace = get_workload(name).trace(budget)
        assert 0 < len(trace) <= budget
        assert trace.name == name
        stats = simulate(baseline_8way(), trace)
        assert stats.committed == len(trace)
        assert stats.ipc > 0

    def test_trace_cache_spans_access_paths(self):
        # get_trace and Workload.trace share one cache.
        assert get_trace("zoo_tiny_body", 500) is get_workload(
            "zoo_tiny_body").trace(500)

    @pytest.mark.parametrize("name, build", [
        ("li", build_program), ("dct", build_extra_program)])
    def test_programs_built_once_per_source(self, monkeypatch, name, build):
        # Every budget's loader and the build_* helpers share one
        # program per source text; an edited source builds afresh.
        from repro.workloads import extra, li

        loader = get_workload(name)._loader
        program = loader(100).program
        assert loader(200).program is program
        assert build(name) is program
        if name == "li":
            original = li.source()
            monkeypatch.setattr(li, "source", lambda: original + "\n# x\n")
        else:
            monkeypatch.setitem(extra._SOURCES, name,
                                extra._SOURCES[name] + "\n# x\n")
        assert loader(100).program is not program


class TestTraceCacheBound:
    """The trace cache is an LRU capped by total cached instructions."""

    @pytest.fixture
    def cache(self, monkeypatch):
        from repro.workloads import registry

        fresh = {}
        monkeypatch.setattr(registry, "_TRACE_CACHE", fresh)
        monkeypatch.setattr(registry, "TRACE_CACHE_INSTRUCTIONS", 2_000)
        return fresh

    @staticmethod
    def cached_instructions(cache):
        return sum(len(trace) for trace in cache.values())

    def test_many_budgets_stay_under_the_cap(self, cache):
        for budget in range(100, 1_600, 100):
            trace = get_trace("zoo_tiny_body", budget)
            assert self.cached_instructions(cache) <= 2_000
            assert get_trace("zoo_tiny_body", budget) is trace
        budgets = sorted(key[2] for key in cache)
        assert budgets == [1_500]  # the older budgets were evicted

    def test_least_recently_used_goes_first(self, cache):
        first = get_trace("zoo_tiny_body", 800)
        get_trace("zoo_tiny_body", 900)
        assert get_trace("zoo_tiny_body", 800) is first  # now the newest
        get_trace("zoo_tiny_body", 700)
        assert sorted(key[2] for key in cache) == [700, 800]
        assert get_trace("zoo_tiny_body", 800) is first

    def test_a_trace_longer_than_the_cap_is_not_kept(self, cache):
        kept = get_trace("zoo_tiny_body", 500)
        assert len(get_trace("zoo_tiny_body", 2_500)) == 2_500
        assert list(cache.values()) == [kept]

    def test_the_cap_holds_the_registry_at_the_default_budget(self):
        from repro.core.experiments import DEFAULT_INSTRUCTIONS
        from repro.workloads.registry import TRACE_CACHE_INSTRUCTIONS

        names = workload_names("kernel") + workload_names("synthetic")
        assert len(names) * DEFAULT_INSTRUCTIONS <= TRACE_CACHE_INSTRUCTIONS


class TestZooScenarios:
    def test_zoo_config_overrides_length_only(self):
        base = ZOO_SCENARIOS["zoo_mem_cold"][1]
        config = zoo_config("zoo_mem_cold", length=123)
        assert config.length == 123
        assert config.seed == base.seed
        assert config.memory_words == base.memory_words

    def test_ilp_axis_orders_dependence_distance(self):
        from repro.analysis.traces import mean_dependence_distance

        distances = [
            mean_dependence_distance(get_trace(name, 2_000))
            for name in ("zoo_ilp_serial", "zoo_ilp_moderate",
                         "zoo_ilp_wide")
        ]
        assert distances == sorted(distances)

    def test_branch_axis_orders_branch_fraction(self):
        sparse = get_trace("zoo_br_sparse", 2_000).branch_fraction()
        dense = get_trace("zoo_br_dense_coin", 2_000).branch_fraction()
        assert sparse < dense


#: Golden IPC pins for zoo scenarios, recorded like the paper-kernel
#: pins in test_golden_regression.py: any drift means the synthetic
#: generator or the pipeline changed, which must be deliberate.
ZOO_LENGTH = 4_000
ZOO_GOLDEN_IPC = {
    ("baseline", "zoo_ilp_wide"): 2.346,
    ("clustered", "zoo_ilp_wide"): 2.138,
    ("baseline", "zoo_br_coin"): 1.505,
    ("clustered", "zoo_br_coin"): 1.364,
    ("baseline", "zoo_mem_hot"): 2.138,
    ("clustered", "zoo_mem_hot"): 1.867,
}
_FACTORIES = {
    "baseline": baseline_8way,
    "clustered": clustered_dependence_8way,
}


@pytest.mark.parametrize("machine,workload", sorted(ZOO_GOLDEN_IPC))
def test_zoo_golden_ipc(machine, workload):
    stats = simulate(
        _FACTORIES[machine](), get_trace(workload, ZOO_LENGTH)
    )
    pinned = ZOO_GOLDEN_IPC[(machine, workload)]
    assert stats.ipc == pytest.approx(pinned, abs=0.02), (
        f"zoo behaviour changed for {machine}/{workload}: "
        f"IPC {stats.ipc:.3f} vs recorded {pinned:.3f}"
    )
