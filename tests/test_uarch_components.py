"""Tests for the simulator's component models: predictor, cache,
FIFOs, steering, dependence analysis, and configuration validation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import assemble, run_to_trace
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.config import (
    CacheConfig,
    ClusterConfig,
    MachineConfig,
    PredictorConfig,
    SteeringPolicy,
)
from repro.uarch.depend import NO_PRODUCER, dependence_info
from repro.uarch.fifos import FifoSet, IssueFifo
from repro.uarch.predictor import GshareBranchPredictor
from repro.uarch.steering import (
    FifoDispatchSteering,
    OutstandingOperand,
    RandomSteering,
    SteeringView,
)


class TestPredictor:
    def test_learns_always_taken(self):
        predictor = GshareBranchPredictor()
        for _ in range(100):
            predictor.predict_and_update(pc=10, taken=True)
        assert predictor.predict(10)
        assert predictor.accuracy > 0.9

    def test_learns_alternating_pattern(self):
        # gshare's history register captures short periodic patterns.
        predictor = GshareBranchPredictor()
        outcomes = [True, False] * 300
        hits = sum(
            predictor.predict_and_update(pc=20, taken=t) == t for t in outcomes
        )
        assert hits / len(outcomes) > 0.8

    def test_random_stream_is_hard(self):
        import random

        rng = random.Random(3)
        predictor = GshareBranchPredictor()
        outcomes = [rng.random() < 0.5 for _ in range(2000)]
        hits = sum(
            predictor.predict_and_update(pc=30, taken=t) == t for t in outcomes
        )
        assert hits / len(outcomes) < 0.65

    def test_counters_saturate(self):
        predictor = GshareBranchPredictor()
        for _ in range(10):
            predictor.update(0, True)
        # One not-taken must not flip a saturated counter.
        predictor._history = 0
        predictor.update(0, False)
        predictor._history = 0
        assert predictor.predict(0)

    def test_accuracy_zero_without_lookups(self):
        assert GshareBranchPredictor().accuracy == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PredictorConfig(counters=1000)  # not a power of two
        with pytest.raises(ValueError):
            PredictorConfig(history_bits=-1)


class TestCache:
    def test_first_access_misses_then_hits(self):
        cache = SetAssociativeCache()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.access(0x1010)  # same 32-byte line

    def test_line_granularity(self):
        cache = SetAssociativeCache()
        cache.access(0x1000)
        assert not cache.access(0x1020)  # next line

    def test_lru_eviction(self):
        config = CacheConfig(size_bytes=4 * 32, associativity=2, line_bytes=32)
        cache = SetAssociativeCache(config)  # 2 sets x 2 ways
        sets = config.sets
        a, b, c = 0, sets * 32, 2 * sets * 32  # same set, three lines
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a is MRU
        cache.access(c)  # evicts b (LRU)
        assert cache.probe(a)
        assert not cache.probe(b)
        assert cache.probe(c)

    def test_load_latency_hit_and_miss(self):
        cache = SetAssociativeCache()
        assert cache.load_latency(0x40) == cache.config.miss_cycles
        assert cache.load_latency(0x40) == cache.config.hit_cycles

    def test_probe_does_not_touch_stats(self):
        cache = SetAssociativeCache()
        cache.probe(0x123)
        assert cache.accesses == 0

    def test_miss_rate(self):
        cache = SetAssociativeCache()
        assert cache.miss_rate == 0.0
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == pytest.approx(0.5)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache().access(-4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(line_bytes=24)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0)
        with pytest.raises(ValueError):
            CacheConfig(hit_cycles=3, miss_cycles=2)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=200))
    def test_occupancy_never_exceeds_ways(self, addresses):
        config = CacheConfig(size_bytes=1024, associativity=2, line_bytes=32)
        cache = SetAssociativeCache(config)
        for address in addresses:
            cache.access(address)
        for ways in cache._sets:
            assert len(ways) <= config.associativity


class TestFifos:
    def test_push_pop_order(self):
        fifo = IssueFifo(4)
        for seq in (3, 5, 9):
            fifo.push(seq)
        assert fifo.head == 3
        assert fifo.tail == 9
        assert fifo.pop_head() == 3
        assert fifo.head == 5

    def test_full_rejects_push(self):
        fifo = IssueFifo(1)
        fifo.push(1)
        assert fifo.is_full
        with pytest.raises(OverflowError):
            fifo.push(2)

    def test_remove_from_middle(self):
        fifo = IssueFifo(4)
        for seq in (1, 2, 3):
            fifo.push(seq)
        fifo.remove(2)
        assert fifo.head == 1
        assert fifo.tail == 3
        with pytest.raises(ValueError):
            fifo.remove(99)

    def test_contains_and_len(self):
        fifo = IssueFifo(4)
        fifo.push(7)
        assert 7 in fifo
        assert len(fifo) == 1

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            IssueFifo(0)

    def test_fifo_set_free_pool(self):
        fifo_set = FifoSet(count=2, depth=2)
        assert fifo_set.empty_fifo_index() == 0
        fifo_set.fifos[0].push(1)
        assert fifo_set.empty_fifo_index() == 1
        fifo_set.fifos[1].push(2)
        assert fifo_set.empty_fifo_index() is None
        assert fifo_set.occupancy == 2
        assert list(fifo_set.heads()) == [(0, 1), (1, 2)]

    def test_fifo_set_validation(self):
        with pytest.raises(ValueError):
            FifoSet(count=0, depth=4)


class TestFifoSteeringHeuristic:
    """Section 5.1 rules, checked case by case."""

    def make_view(self, count=4, depth=2):
        return SteeringView([FifoSet(count=count, depth=depth)])

    def test_no_outstanding_operands_gets_new_fifo(self):
        steering = FifoDispatchSteering(1)
        view = self.make_view()
        placement = steering.place(view, [])
        assert placement is not None
        assert view.fifo_sets[0].fifos[placement.fifo].is_empty

    def test_single_operand_behind_tail(self):
        steering = FifoDispatchSteering(1)
        view = self.make_view()
        view.fifo_sets[0].fifos[1].push(10)
        operand = OutstandingOperand(producer=10, cluster=0, fifo=1, is_tail=True)
        placement = steering.place(view, [operand])
        assert placement == type(placement)(cluster=0, fifo=1)

    def test_single_operand_not_tail_gets_new_fifo(self):
        steering = FifoDispatchSteering(1)
        view = self.make_view()
        view.fifo_sets[0].fifos[1].push(10)
        view.fifo_sets[0].fifos[1].push(11)  # something behind producer
        operand = OutstandingOperand(producer=10, cluster=0, fifo=1, is_tail=False)
        placement = steering.place(view, [operand])
        assert placement.fifo != 1

    def test_full_fifo_is_unsuitable(self):
        steering = FifoDispatchSteering(1)
        view = self.make_view(depth=1)
        view.fifo_sets[0].fifos[1].push(10)
        operand = OutstandingOperand(producer=10, cluster=0, fifo=1, is_tail=True)
        placement = steering.place(view, [operand])
        assert placement.fifo != 1

    def test_two_operands_prefers_left(self):
        steering = FifoDispatchSteering(1)
        view = self.make_view()
        view.fifo_sets[0].fifos[0].push(10)
        view.fifo_sets[0].fifos[1].push(11)
        left = OutstandingOperand(producer=10, cluster=0, fifo=0, is_tail=True)
        right = OutstandingOperand(producer=11, cluster=0, fifo=1, is_tail=True)
        assert steering.place(view, [left, right]).fifo == 0

    def test_two_operands_falls_back_to_right(self):
        steering = FifoDispatchSteering(1)
        view = self.make_view()
        view.fifo_sets[0].fifos[0].push(10)
        view.fifo_sets[0].fifos[0].push(12)  # left producer buried
        view.fifo_sets[0].fifos[1].push(11)
        left = OutstandingOperand(producer=10, cluster=0, fifo=0, is_tail=False)
        right = OutstandingOperand(producer=11, cluster=0, fifo=1, is_tail=True)
        assert steering.place(view, [left, right]).fifo == 1

    def test_stall_when_no_empty_fifo(self):
        steering = FifoDispatchSteering(1)
        view = self.make_view(count=2, depth=1)
        view.fifo_sets[0].fifos[0].push(1)
        view.fifo_sets[0].fifos[1].push(2)
        assert steering.place(view, []) is None

    def test_two_cluster_free_lists_stay_current(self):
        # Section 5.5: consecutive new-FIFO requests go to the same
        # cluster until its free list is exhausted.
        steering = FifoDispatchSteering(2)
        sets = [FifoSet(count=2, depth=1), FifoSet(count=2, depth=1)]
        view = SteeringView(sets)
        first = steering.place(view, [])
        sets[first.cluster].fifos[first.fifo].push(1)
        second = steering.place(view, [])
        assert second.cluster == first.cluster
        sets[second.cluster].fifos[second.fifo].push(2)
        third = steering.place(view, [])
        assert third.cluster != first.cluster

    def test_window_room_respected(self):
        steering = FifoDispatchSteering(2)
        sets = [FifoSet(count=2, depth=4), FifoSet(count=2, depth=4)]
        view = SteeringView(sets, window_room=[0, 3])
        placement = steering.place(view, [])
        assert placement.cluster == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FifoDispatchSteering(0)


class TestRandomSteering:
    def test_deterministic_per_seed(self):
        sets = [FifoSet(2, 4), FifoSet(2, 4)]
        view = SteeringView(sets, window_room=[5, 5])
        a = RandomSteering(2, seed=9)
        b = RandomSteering(2, seed=9)
        choices_a = [a.place(view, []).cluster for _ in range(50)]
        choices_b = [b.place(view, []).cluster for _ in range(50)]
        assert choices_a == choices_b
        assert set(choices_a) == {0, 1}

    def test_falls_back_when_full(self):
        sets = [FifoSet(2, 4), FifoSet(2, 4)]
        view = SteeringView(sets, window_room=[0, 1])
        steering = RandomSteering(2, seed=1)
        for _ in range(20):
            assert steering.place(view, []).cluster == 1

    def test_stalls_when_both_full(self):
        view = SteeringView([FifoSet(2, 4)] * 2, window_room=[0, 0])
        assert RandomSteering(2).place(view, []) is None

    def test_reset_restarts_sequence(self):
        view = SteeringView([FifoSet(2, 4)] * 2, window_room=[9, 9])
        steering = RandomSteering(2, seed=4)
        first = [steering.place(view, []).cluster for _ in range(20)]
        steering.reset()
        second = [steering.place(view, []).cluster for _ in range(20)]
        assert first == second


class TestDependenceInfo:
    def trace_of(self, source):
        return run_to_trace(assemble(source))

    def test_producers_found(self):
        trace = self.trace_of("li r1, 1\naddu r2, r1, r1\nhalt\n")
        assert dependence_info(trace)[1] == (0, 0)

    def test_no_producer_for_initial_values(self):
        trace = self.trace_of("addu r2, r5, r6\nhalt\n")
        assert dependence_info(trace)[0] == (NO_PRODUCER, NO_PRODUCER)

    def test_latest_writer_wins(self):
        trace = self.trace_of("li r1, 1\nli r1, 2\naddu r2, r1, r1\nhalt\n")
        assert dependence_info(trace)[2] == (1, 1)

    def test_cached_on_trace(self):
        trace = self.trace_of("li r1, 1\nhalt\n")
        assert dependence_info(trace) is dependence_info(trace)

    def test_producers_precede_consumers(self):
        from repro.workloads import get_trace

        trace = get_trace("gcc", 2_000)
        for seq, producers in enumerate(dependence_info(trace)):
            for producer in producers:
                assert producer == NO_PRODUCER or producer < seq


class TestMachineConfigValidation:
    def test_defaults_are_table3(self):
        config = MachineConfig()
        assert config.fetch_width == 8
        assert config.retire_width == 16
        assert config.max_in_flight == 128
        assert config.int_phys_regs == 120
        assert config.clusters[0].window_size == 64
        assert config.cache.ports == 4

    def test_register_file_must_cover_isa(self):
        # Rejected where the config is built, before it gets a cache
        # key or reaches a worker.
        with pytest.raises(ValueError, match="smaller than the ISA"):
            MachineConfig(int_phys_regs=16)
        with pytest.raises(ValueError, match="smaller than the ISA"):
            MachineConfig(fp_phys_regs=32)

    def test_fifo_machines_need_steering(self):
        with pytest.raises(ValueError, match="steering"):
            MachineConfig(clusters=(ClusterConfig(fifo_count=8),))

    def test_two_clusters_need_steering(self):
        with pytest.raises(ValueError, match="steering"):
            MachineConfig(clusters=(ClusterConfig(), ClusterConfig()))

    def test_fifo_dispatch_requires_fifo_clusters(self):
        with pytest.raises(ValueError, match="FIFO_DISPATCH"):
            MachineConfig(
                clusters=(ClusterConfig(),),
                steering=SteeringPolicy.FIFO_DISPATCH,
            )

    def test_window_policies_reject_fifo_clusters(self):
        with pytest.raises(ValueError, match="window clusters"):
            MachineConfig(
                clusters=(ClusterConfig(fifo_count=4), ClusterConfig(fifo_count=4)),
                steering=SteeringPolicy.RANDOM,
            )

    def test_exec_driven_needs_two_clusters(self):
        with pytest.raises(ValueError, match="two clusters"):
            MachineConfig(
                clusters=(ClusterConfig(),),
                steering=SteeringPolicy.EXEC_DRIVEN,
            )

    def test_at_most_two_clusters(self):
        with pytest.raises(ValueError, match="two clusters"):
            MachineConfig(
                clusters=(ClusterConfig(),) * 3,
                steering=SteeringPolicy.RANDOM,
            )

    def test_cluster_capacity(self):
        assert ClusterConfig(fifo_count=8, fifo_depth=8).capacity == 64
        assert ClusterConfig(window_size=32).capacity == 32

    def test_extra_bypass_latency(self):
        config = MachineConfig(
            clusters=(ClusterConfig(fu_count=4),) * 2,
            steering=SteeringPolicy.RANDOM,
            inter_cluster_bypass_cycles=2,
        )
        assert config.extra_bypass_latency == 1
        assert config.total_fu_count == 8
        assert config.total_capacity == 128


class TestGeometryValidation:
    """Cross-field geometry checks: the fuzzer's sampler (and every
    other caller) must be unable to build an impossible machine."""

    def test_fifo_cluster_normalises_default_window_size(self):
        cluster = ClusterConfig(fifo_count=4, fifo_depth=8)
        assert cluster.window_size == 32  # single-valued geometry
        assert cluster.capacity == 32

    def test_fifo_cluster_accepts_explicit_consistent_window_size(self):
        cluster = ClusterConfig(fifo_count=4, fifo_depth=8, window_size=32)
        assert cluster.window_size == 32

    def test_fifo_cluster_rejects_inconsistent_window_size(self):
        with pytest.raises(ValueError, match="inconsistent with the FIFO"):
            ClusterConfig(fifo_count=4, fifo_depth=8, window_size=48)

    def test_fifo_geometry_error_names_the_numbers(self):
        with pytest.raises(ValueError, match=r"4x8 cluster holds 32"):
            ClusterConfig(fifo_count=4, fifo_depth=8, window_size=100)

    def test_in_flight_limit_must_cover_window_capacity(self):
        with pytest.raises(ValueError, match="could never fill"):
            MachineConfig(max_in_flight=32)  # default window is 64

    def test_in_flight_limit_must_cover_total_fifo_capacity(self):
        with pytest.raises(ValueError, match="could never fill"):
            MachineConfig(
                clusters=(ClusterConfig(fifo_count=4, fifo_depth=8),) * 2,
                steering=SteeringPolicy.FIFO_DISPATCH,
                max_in_flight=32,  # two 4x8 clusters hold 64
            )

    def test_in_flight_limit_equal_to_capacity_is_allowed(self):
        config = MachineConfig(max_in_flight=64)
        assert config.max_in_flight == config.total_capacity == 64

    def test_cluster_issue_widths_derived_from_fu_count(self):
        config = MachineConfig(
            issue_width=8,
            clusters=(ClusterConfig(fu_count=4), ClusterConfig(fu_count=4)),
            steering=SteeringPolicy.RANDOM,
        )
        assert config.cluster_issue_widths == (4, 4)
        assert MachineConfig().cluster_issue_widths == (8,)

    def test_reservation_tag_count_is_the_in_flight_limit(self):
        assert MachineConfig().reservation_tag_count == 128
        assert MachineConfig(max_in_flight=64).reservation_tag_count == 64

    def test_sampler_cannot_build_impossible_machines(self):
        import random

        from repro.verify.sampler import sample_machine

        rng = random.Random(7)
        for _ in range(200):
            _shape, config = sample_machine(rng)
            assert config.max_in_flight >= config.total_capacity
