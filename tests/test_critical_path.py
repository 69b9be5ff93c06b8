"""The config-derived clock layer: registry, golden pins, accounting.

Pins the pre-refactor numeric outputs (Table 2 rows, the Section 5.5
clock ratio, Table 4 reservation delays) at every technology node, and
asserts the structural properties of :mod:`repro.delay.critical_path`:
every registered machine shape yields a finite critical path at every
technology, bypass never bounds the clock, and the thin consumers
(frontier, summary) agree with the layer exactly.
"""

import pytest

from repro.core.frontier import conventional_clock_ps, dependence_clock_ps
from repro.core.machines import MACHINE_REGISTRY, machine_registry
from repro.delay.critical_path import (
    DELAY_MODEL_REGISTRY,
    CriticalPath,
    StructureDelay,
    bypass_ps,
    clock_ps,
    critical_path,
    fifo_window_logic_ps,
    rename_ps,
    window_logic_ps,
)
from repro.delay.summary import (
    clock_ratio_dependence_based,
    overall_delays,
)
from repro.technology import TECH_018, TECH_035, TECH_080, TECHNOLOGIES

#: Golden Table 2 numbers (model outputs, ps) -- the pre-refactor
#: values every later refactor must preserve:
#: tech -> (issue_width, window) -> (rename, wakeup+select, bypass).
TABLE2_PS = {
    TECH_080: {
        (4, 32): (1577.9, 2902.8, 184.9),
        (8, 64): (1710.5, 3369.3, 1056.4),
    },
    TECH_035: {
        (4, 32): (627.2, 1247.5, 184.9),
        (8, 64): (726.6, 1484.7, 1056.4),
    },
    TECH_018: {
        (4, 32): (351.0, 577.9, 184.9),
        (8, 64): (427.9, 724.0, 1056.4),
    },
}

#: Section 5.5 ratio f_dep / f_window per technology (golden).
CLOCK_RATIO = {TECH_080: 1.1607, TECH_035: 1.1901, TECH_018: 1.2529}


class TestGoldenPins:
    @pytest.mark.parametrize("tech", TECHNOLOGIES, ids=lambda t: t.name)
    @pytest.mark.parametrize("point", [(4, 32), (8, 64)])
    def test_table2_row_via_scalar_helpers(self, tech, point):
        issue_width, window = point
        rename, window_logic, bypass = TABLE2_PS[tech][point]
        assert rename_ps(tech, issue_width) == pytest.approx(rename, abs=0.05)
        assert window_logic_ps(tech, issue_width, window) == pytest.approx(
            window_logic, abs=0.05
        )
        assert bypass_ps(tech, issue_width) == pytest.approx(bypass, abs=0.05)

    @pytest.mark.parametrize("tech", TECHNOLOGIES, ids=lambda t: t.name)
    def test_summary_agrees_with_layer(self, tech):
        for (issue_width, window), row in TABLE2_PS[tech].items():
            summary = overall_delays(tech, issue_width, window)
            assert summary.rename_ps == pytest.approx(row[0], abs=0.05)
            assert summary.window_logic_ps == pytest.approx(row[1], abs=0.05)
            assert summary.bypass_ps == pytest.approx(row[2], abs=0.05)

    @pytest.mark.parametrize("tech", TECHNOLOGIES, ids=lambda t: t.name)
    def test_section_5_5_clock_ratio(self, tech):
        assert clock_ratio_dependence_based(tech) == pytest.approx(
            CLOCK_RATIO[tech], abs=5e-4
        )

    def test_baseline_clock_is_table2_window_logic(self):
        config = MACHINE_REGISTRY["baseline"]()
        assert clock_ps(config, TECH_018) == pytest.approx(724.0, abs=0.05)

    def test_table4_reservation_window_logic(self):
        # Table 4 wakeup plus a selection tree over the FIFO heads; the
        # tag space is the machine's in-flight limit (128).
        fifo = fifo_window_logic_ps(TECH_018, 8, 128, 8)
        dependence = MACHINE_REGISTRY["dependence"]()
        path = critical_path(dependence, TECH_018)
        window = [s for s in path.structures if s.structure == "window"]
        assert len(window) == 1
        assert window[0].delay_ps == pytest.approx(fifo, abs=1e-9)
        assert fifo < window_logic_ps(TECH_018, 8, 64)


class TestRegistryCoverage:
    @pytest.mark.parametrize("tech", TECHNOLOGIES, ids=lambda t: t.name)
    @pytest.mark.parametrize("shape", sorted(MACHINE_REGISTRY))
    def test_every_shape_has_finite_critical_path(self, shape, tech):
        config = machine_registry()[shape]
        path = critical_path(config, tech)
        assert isinstance(path, CriticalPath)
        assert path.clock_ps > 0.0
        assert path.critical_path_ps >= path.clock_ps
        assert path.frequency_ghz > 0.0
        assert all(s.delay_ps > 0.0 for s in path.structures)

    def test_registry_covers_all_studied_structures(self):
        assert list(DELAY_MODEL_REGISTRY) == [
            "rename", "window", "bypass", "regfile", "cache",
        ]

    def test_clustered_machines_get_per_cluster_entries(self):
        config = MACHINE_REGISTRY["clustered_windows"]()
        path = critical_path(config, TECH_018)
        windows = [s for s in path.structures if s.structure == "window"]
        bypasses = [s for s in path.structures if s.structure == "bypass"]
        assert len(windows) == len(config.clusters) == 2
        assert len(bypasses) == 2

    def test_custom_builder_extends_the_path(self):
        from repro.delay.critical_path import delay_model

        @delay_model("always-slow")
        def _slow(config, tech):
            return (
                StructureDelay(
                    structure="always-slow",
                    label="synthetic bottleneck",
                    delay_ps=1e6,
                    atomic=False,
                    clock_bounding=True,
                ),
            )

        try:
            path = critical_path(MACHINE_REGISTRY["baseline"](), TECH_018)
            assert path.clock_ps == pytest.approx(1e6)
            assert path.bounding_structure.label == "synthetic bottleneck"
        finally:
            del DELAY_MODEL_REGISTRY["always-slow"]


class TestStrategyShapePins:
    """Clock pins for the post-reference strategy shapes.

    ``load_tracking`` swaps the CAM wakeup for a ready-time RAM table
    (Diavastos & Carlson), so its clock must land strictly between the
    conventional window and the FIFO dependence scheme.
    ``ports_limited`` only constrains register-file ports -- a
    structure that is pipelined and never clock-bounding -- so its
    clock is byte-identical to the baseline's.
    """

    #: tech -> load_delay_tracking window-logic clock (8-way/64).
    LDT_CLOCK_PS = {TECH_080: 3131.5, TECH_035: 1205.8, TECH_018: 611.7}

    @pytest.mark.parametrize("tech", TECHNOLOGIES, ids=lambda t: t.name)
    def test_load_tracking_clock_pinned(self, tech):
        config = MACHINE_REGISTRY["load_tracking"]()
        assert clock_ps(config, tech) == pytest.approx(
            self.LDT_CLOCK_PS[tech], abs=0.05
        )

    @pytest.mark.parametrize("tech", TECHNOLOGIES, ids=lambda t: t.name)
    def test_load_tracking_between_window_and_fifo(self, tech):
        ldt = clock_ps(MACHINE_REGISTRY["load_tracking"](), tech)
        conventional = clock_ps(MACHINE_REGISTRY["baseline"](), tech)
        fifo = clock_ps(MACHINE_REGISTRY["dependence"](), tech)
        assert fifo < ldt < conventional

    @pytest.mark.parametrize("tech", TECHNOLOGIES, ids=lambda t: t.name)
    def test_ports_limited_clock_equals_baseline(self, tech):
        ports = clock_ps(MACHINE_REGISTRY["ports_limited"](), tech)
        baseline = clock_ps(MACHINE_REGISTRY["baseline"](), tech)
        assert ports == pytest.approx(baseline, abs=1e-9)

    def test_ports_limited_regfile_shrinks_with_port_budget(self):
        # Halving the read ports must shrink the (non-bounding)
        # regfile structure delay while the clock stays put.
        wide = critical_path(MACHINE_REGISTRY["ports_limited"](), TECH_018)
        narrow = critical_path(
            MACHINE_REGISTRY["ports_limited"](read_ports=2), TECH_018
        )
        wide_rf = [s for s in wide.structures if s.structure == "regfile"]
        narrow_rf = [s for s in narrow.structures if s.structure == "regfile"]
        assert narrow_rf[0].delay_ps < wide_rf[0].delay_ps
        assert narrow.clock_ps == pytest.approx(wide.clock_ps)

    def test_load_tracking_window_label_names_ready_time_logic(self):
        path = critical_path(MACHINE_REGISTRY["load_tracking"](), TECH_018)
        windows = [s for s in path.structures if s.structure == "window"]
        assert len(windows) == 1
        assert "ready-time" in windows[0].label


class TestAccounting:
    def test_bypass_never_bounds_the_clock(self):
        # At 0.8 um the baseline's bypass (1056 ps there too, it is
        # technology-invariant) is still excluded from the bound.
        config = MACHINE_REGISTRY["baseline"]()
        for tech in TECHNOLOGIES:
            path = critical_path(config, tech)
            assert path.bounding_structure.structure != "bypass"

    def test_bypass_can_set_the_critical_path(self):
        # Table 2 at 0.18 um: the 8-way bypass (1056.4) exceeds the
        # window logic (724.0), so it sets the critical path but not
        # the clock bound.
        path = critical_path(MACHINE_REGISTRY["baseline"](), TECH_018)
        assert path.clock_ps == pytest.approx(724.0, abs=0.05)
        assert path.critical_path_ps == pytest.approx(1056.4, abs=0.05)
        assert path.critical_structure.structure == "bypass"

    def test_atomic_flags_follow_section_4_5(self):
        path = critical_path(MACHINE_REGISTRY["baseline"](), TECH_018)
        by_structure = {}
        for entry in path.structures:
            by_structure.setdefault(entry.structure, entry)
        assert by_structure["window"].atomic
        assert by_structure["bypass"].atomic
        assert not by_structure["rename"].atomic
        assert not by_structure["regfile"].clock_bounding
        assert not by_structure["cache"].clock_bounding

    def test_rows_and_report_cover_every_structure(self):
        path = critical_path(MACHINE_REGISTRY["clustered"](), TECH_018)
        rows = path.rows()
        assert len(rows) == len(path.structures)
        report = path.format_report()
        for label, _delay, _flags in rows:
            assert label in report
        assert "clock bound" in report
        assert "critical path" in report

    def test_geometry_is_derived_not_retyped(self):
        # Shrinking a cluster's FU count must shrink its effective
        # issue width (and so its window-logic delay) without any
        # caller passing widths around.
        wide = MACHINE_REGISTRY["baseline"]()
        narrow = MACHINE_REGISTRY["baseline"](issue_width=4)
        assert clock_ps(narrow, TECH_018) < clock_ps(wide, TECH_018)
        assert narrow.cluster_issue_widths == (4,)


class TestThinConsumers:
    def test_conventional_clock_matches_critical_path(self):
        for window in (8, 16, 32, 64, 128):
            config = MACHINE_REGISTRY["baseline"](window_size=window)
            assert conventional_clock_ps(TECH_018, 8, window) == pytest.approx(
                clock_ps(config, TECH_018)
            )

    def test_dependence_clock_matches_critical_path(self):
        config = MACHINE_REGISTRY["dependence"]()
        assert dependence_clock_ps(TECH_018, 8) == pytest.approx(
            clock_ps(config, TECH_018)
        )
