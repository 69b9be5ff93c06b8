"""Tests for the supporting delay models: register file, CAM rename,
cache access, and the Figure 10 wakeup/select pipelining option."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.experiments import serial_chain_trace
from repro.core.machines import baseline_8way
from repro.delay import (
    CacheAccessDelayModel,
    CamRenameDelayModel,
    RegisterFileDelayModel,
    RenameDelayModel,
)
from repro.isa import assemble, run_to_trace
from repro.technology import TECH_018, TECH_035, TECH_080, TECHNOLOGIES
from repro.uarch.config import CacheConfig, MachineConfig
from repro.uarch.pipeline import simulate


class TestRegisterFileModel:
    def test_reference_geometry_matches_rename_fit(self):
        # A 32x7 RAM with 12 ports *is* the fitted 4-wide rename table.
        model = RegisterFileDelayModel(TECH_018)
        delay = model.total(32, read_ports=8, write_ports=4)
        # Entry width differs (64b vs 7b), so compare through the
        # internal reference instead: geometry ratios of 1 reproduce
        # the fitted rename total.
        assert model._reference_geometry().bits == 7
        rename = RenameDelayModel(TECH_018).total(4)
        assert delay > rename  # 64-bit entries make wordlines longer

    def test_more_read_ports_is_slower(self):
        model = RegisterFileDelayModel(TECH_018)
        assert model.total(120, 16, 8) > model.total(120, 8, 8)

    def test_more_registers_is_slower(self):
        model = RegisterFileDelayModel(TECH_018)
        assert model.total(240, 16, 8) > model.total(120, 16, 8)

    def test_clustered_copies_are_faster(self):
        # Section 5.4, third advantage: per-cluster register-file
        # copies have fewer read ports, hence faster access.
        for tech in TECHNOLOGIES:
            model = RegisterFileDelayModel(tech)
            shared = model.machine_total(120, issue_width=8)
            per_cluster = model.clustered_total(120, issue_width=8, clusters=2)
            assert per_cluster < shared

    def test_scales_with_technology(self):
        delays = [
            RegisterFileDelayModel(t).machine_total(120, 8) for t in TECHNOLOGIES
        ]
        assert delays[0] > delays[1] > delays[2]

    def test_validation(self):
        model = RegisterFileDelayModel(TECH_018)
        with pytest.raises(ValueError):
            model.total(1, 2, 2)
        with pytest.raises(ValueError):
            model.total(120, 0, 2)
        with pytest.raises(ValueError):
            model.clustered_total(120, 8, 0)

    @settings(max_examples=30)
    @given(
        st.integers(min_value=2, max_value=512),
        st.integers(min_value=1, max_value=32),
    )
    def test_monotone(self, registers, read_ports):
        model = RegisterFileDelayModel(TECH_018)
        base = model.total(registers, read_ports, 4)
        assert model.total(registers + 8, read_ports, 4) >= base
        assert model.total(registers, read_ports + 1, 4) >= base


class TestCamRenameModel:
    def test_comparable_at_design_point(self):
        # Section 4.1.1: "the performance was found to be comparable".
        for tech in TECHNOLOGIES:
            cam = CamRenameDelayModel(tech).total(4, 80)
            ram = RenameDelayModel(tech).total(4)
            assert cam == pytest.approx(ram, rel=1e-6)

    def test_less_scalable_than_ram(self):
        # Section 4.1.1: CAM entries grow with the physical register
        # count, which grows with issue width.
        cam = CamRenameDelayModel(TECH_018)
        ram = RenameDelayModel(TECH_018)
        assert cam.total(8, 256) > 2 * ram.total(8)
        assert cam.total(16, 256) > cam.total(8, 256)

    def test_advantage_sign(self):
        cam = CamRenameDelayModel(TECH_018)
        # Small files: CAM holds its own; big files: RAM wins.
        assert cam.advantage_of_ram(2, 64) > 0  # CAM faster here
        assert cam.advantage_of_ram(8, 256) < 0

    def test_monotone_in_registers(self):
        cam = CamRenameDelayModel(TECH_035)
        delays = [cam.total(8, regs) for regs in (64, 96, 128, 192, 256)]
        assert delays == sorted(delays)

    def test_geometry(self):
        geometry = CamRenameDelayModel(TECH_018).geometry(4, 80)
        assert geometry.window_size == 80

    def test_validation(self):
        with pytest.raises(ValueError):
            CamRenameDelayModel(TECH_018).total(4, 1)
        with pytest.raises(ValueError):
            CamRenameDelayModel(TECH_018).total(0, 80)


class TestCacheAccessModel:
    def test_monotone_in_size(self):
        model = CacheAccessDelayModel(TECH_018)
        delays = [
            model.total(CacheConfig(size_bytes=kb * 1024))
            for kb in (8, 16, 32, 64, 128)
        ]
        assert delays == sorted(delays)

    def test_associativity_costs(self):
        model = CacheAccessDelayModel(TECH_018)
        direct = model.total(CacheConfig(size_bytes=32 * 1024, associativity=2))
        assoc = model.total(CacheConfig(size_bytes=32 * 1024, associativity=4))
        assert assoc > direct

    def test_ports_cost(self):
        model = CacheAccessDelayModel(TECH_018)
        config = CacheConfig()
        assert model.total(config, ports=4) > model.total(config, ports=1)

    def test_scales_with_technology(self):
        config = CacheConfig()
        delays = [CacheAccessDelayModel(t).total(config) for t in TECHNOLOGIES]
        assert delays[0] > delays[1] > delays[2]

    def test_pipelinable(self):
        assert CacheAccessDelayModel(TECH_018).is_pipelinable()

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheAccessDelayModel(TECH_018).total(CacheConfig(), ports=0)

    def test_folded_geometry_is_reasonable(self):
        geometry = CacheAccessDelayModel.data_array_geometry(CacheConfig())
        assert geometry.rows >= 2
        assert geometry.bits >= 1
        # Aspect ratio within the folding bound.
        assert geometry.rows <= 4 * geometry.bits or geometry.bits <= 4 * geometry.rows


class TestWakeupSelectPipelining:
    """Figure 10: the wakeup+select loop is atomic."""

    def test_two_stage_loop_halves_serial_ipc(self):
        trace = serial_chain_trace(200)
        one = simulate(baseline_8way(wakeup_select_stages=1), trace)
        two = simulate(baseline_8way(wakeup_select_stages=2), trace)
        assert one.ipc == pytest.approx(1.0, abs=0.1)
        assert two.ipc == pytest.approx(0.5, abs=0.06)

    def test_parallel_code_unaffected(self):
        lines = [f"li r{3 + (i % 20)}, {i}" for i in range(300)]
        trace = run_to_trace(assemble("\n".join(lines) + "\nhalt\n"))
        one = simulate(baseline_8way(wakeup_select_stages=1), trace)
        two = simulate(baseline_8way(wakeup_select_stages=2), trace)
        # Independent instructions never wait on wakeup, so the bubble
        # costs (almost) nothing.
        assert two.ipc > 0.95 * one.ipc

    def test_monotone_in_stages(self):
        from repro.workloads import get_trace

        trace = get_trace("gcc", 2_000)
        ipcs = [
            simulate(baseline_8way(wakeup_select_stages=s), trace).ipc
            for s in (1, 2, 3)
        ]
        assert ipcs[0] >= ipcs[1] >= ipcs[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(wakeup_select_stages=0)
