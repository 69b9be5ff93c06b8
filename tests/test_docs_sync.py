"""Documentation-sync checks: the docs must match the code."""

from pathlib import Path

import pytest

from repro.isa.instructions import OPCODES
from repro.obs.profiling import STAGE_LABELS
from repro.workloads import WORKLOAD_NAMES

DOCS = Path(__file__).resolve().parent.parent / "docs"
ROOT = DOCS.parent


@pytest.fixture(scope="module")
def isa_doc():
    return (DOCS / "isa.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def design_doc():
    return (ROOT / "DESIGN.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def readme():
    return (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def performance_doc():
    return (DOCS / "performance.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def architecture_doc():
    return (DOCS / "architecture.md").read_text(encoding="utf-8")


def _check_floors_are_half_the_medians(name):
    # Each row with a recorded median (over ``rounds`` runs) is a
    # measured row whose floor sits at half that median, so a 2x
    # regression of the row fails.  Returns the rows with a median.
    import json

    payload = json.loads(
        (ROOT / f"BENCH_{name}.json").read_text(encoding="utf-8"))
    recorded = payload["recorded"]
    medians = recorded["medians"]
    assert recorded["rounds"] >= 20, name
    for row, spread in medians.items():
        assert row in payload["measured"], (name, row)
        assert spread["q1"] <= spread["median"] <= spread["q3"], row
        assert recorded["floors"][row] == spread["median"] // 2, row
    return set(medians)


class TestIsaDoc:
    def test_every_opcode_documented(self, isa_doc):
        missing = [name for name in OPCODES if f"`{name}`" not in isa_doc]
        assert not missing, f"opcodes missing from docs/isa.md: {missing}"

    def test_no_phantom_opcodes(self, isa_doc):
        # Every table row's first cell must be a real opcode (or the
        # documented pseudo 'la').
        for line in isa_doc.splitlines():
            if not line.startswith("| `"):
                continue
            name = line.split("`")[1]
            assert name in OPCODES or name == "la", f"phantom opcode {name!r}"

    def test_register_conventions_documented(self, isa_doc):
        assert "r0" in isa_doc
        assert "$sp" in isa_doc


class TestDesignDoc:
    def test_every_workload_listed(self, design_doc):
        for name in WORKLOAD_NAMES:
            assert name in design_doc

    def test_every_figure_and_table_indexed(self, design_doc):
        for item in ("Fig 3", "Fig 5", "Fig 6", "Fig 8", "Fig 10", "Fig 13",
                     "Fig 15", "Fig 17", "Table 1", "Table 2", "Table 4"):
            assert item in design_doc, f"{item} missing from DESIGN.md"

    def test_substitutions_documented(self, design_doc):
        assert "Hspice" in design_doc
        assert "SPEC" in design_doc

    def test_every_bench_file_exists(self, design_doc):
        for line in design_doc.splitlines():
            if "benchmarks/bench_" not in line:
                continue
            for token in line.split("`"):
                if token.startswith("benchmarks/bench_"):
                    assert (ROOT / token).exists(), f"{token} referenced but missing"


class TestReadme:
    def test_mentions_paper(self, readme):
        assert "Palacharla" in readme
        assert "ISCA 1997" in readme

    def test_install_and_test_commands(self, readme):
        assert "pip install -e ." in readme
        assert "pytest benchmarks/ --benchmark-only" in readme

    def test_every_example_listed(self, readme):
        for script in sorted((ROOT / "examples").glob("*.py")):
            assert script.name in readme, f"{script.name} missing from README"

    def test_architecture_sections_match_packages(self, readme):
        for package in ("technology", "circuits", "delay", "isa", "workloads",
                        "uarch", "analysis", "report", "core", "service"):
            assert f"{package}/" in readme

    def test_performance_section(self, readme):
        assert "## Performance" in readme
        assert "docs/performance.md" in readme
        assert "BENCH_simulator.json" in readme
        assert "--jobs" in readme


class TestPerformanceDoc:
    def test_hot_path_map_matches_profiler(self, performance_doc):
        # The hot-path table must name every stage label the profiled
        # runner variant times, and how that variant is reached.
        for label in STAGE_LABELS:
            assert f"`{label}`" in performance_doc, \
                f"stage label {label!r} missing from docs/performance.md"
        assert "`profiled`" in performance_doc
        assert "`stage_times`" in performance_doc

    def test_mentions_the_artifacts(self, performance_doc):
        assert "BENCH_simulator.json" in performance_doc
        assert "benchmarks/bench_simulator_throughput.py" in performance_doc
        assert "tests/test_fast_reference_equivalence.py" in performance_doc
        assert "profile_simulation" in performance_doc

    def test_floor_constants_are_real(self, performance_doc):
        # The reference and emulator floors the doc quotes are the
        # recorded ones.
        import json

        payload = json.loads(
            (ROOT / "BENCH_simulator.json").read_text(encoding="utf-8"))
        floors = payload["recorded"]["floors"]
        for row in ("baseline_8way/gcc (reference)",
                    "emulator/gcc (functional)"):
            assert f"`{row}` at {floors[row]:,} inst/s" in performance_doc
        assert (floors["baseline_8way/gcc (compiled)"]
                > floors["baseline_8way/gcc (reference)"])

    def test_bench_record_matches_floors(self):
        import json

        payload = json.loads(
            (ROOT / "BENCH_simulator.json").read_text(encoding="utf-8"))
        recorded = payload["recorded"]
        seed_floor = recorded["floors"]["baseline_8way/gcc (reference)"]
        baseline = recorded["baseline_8way"]
        assert baseline["after_inst_per_s"] >= 2 * seed_floor
        assert baseline["after_inst_per_s"] >= 2 * baseline["before_inst_per_s"]

    def test_compiled_section_names_the_real_pieces(self, performance_doc):
        assert 'mode="compiled"' in performance_doc
        assert "repro.uarch.compile" in performance_doc
        assert "recorded.floors" in performance_doc
        assert "model_fingerprint()" in performance_doc
        assert "tests/test_compile.py" in performance_doc

    def test_compiled_bench_record_matches_floors(self):
        # The compiled record must show the tentpole speedup (>= 2x
        # the interpreter it replaced, whose rate is its "before"),
        # and every measured row must have its own median and floor
        # for the regression gate to apply.
        import json

        payload = json.loads(
            (ROOT / "BENCH_simulator.json").read_text(encoding="utf-8"))
        recorded = payload["recorded"]
        compiled_rows = {label for label in payload["measured"]
                         if label.endswith("(compiled)")}
        assert len(compiled_rows) == 6
        assert set(payload["measured"]) == set(recorded["medians"])
        assert set(payload["measured"]) <= set(recorded["floors"])
        compiled = recorded["baseline_8way_compiled"]
        assert compiled["before_inst_per_s"] == (
            recorded["baseline_8way"]["after_inst_per_s"]
        )
        assert compiled["after_inst_per_s"] >= 2 * compiled["before_inst_per_s"]

    def test_row_floors_are_half_the_recorded_medians(self):
        rows = _check_floors_are_half_the_medians("simulator")
        assert len(rows) == 8
        assert {"baseline_8way/gcc (reference)",
                "emulator/gcc (functional)"} < rows

    def test_cross_linked_from_architecture(self, architecture_doc):
        assert "performance.md" in architecture_doc

    def test_links_back(self, performance_doc):
        assert "architecture.md" in performance_doc
        assert "observability.md" in performance_doc


class TestDesignSpaceDoc:
    @pytest.fixture(scope="class")
    def design_space_doc(self):
        return (DOCS / "design_space.md").read_text(encoding="utf-8")

    def test_every_registered_structure_documented(self, design_space_doc):
        from repro.delay.critical_path import DELAY_MODEL_REGISTRY  # noqa: PLC0415

        for structure in DELAY_MODEL_REGISTRY:
            assert f"`{structure}`" in design_space_doc, (
                f"registry structure {structure!r} missing from "
                "docs/design_space.md"
            )

    def test_referenced_files_exist(self, design_space_doc):
        """Every tests/, benchmarks/, or repro/ path the doc names must exist."""
        for line in design_space_doc.splitlines():
            for token in line.split("`"):
                if token.startswith(("tests/", "benchmarks/", "repro/")) \
                        and "<" not in token:
                    candidates = [ROOT / token, ROOT / "src" / token]
                    assert any(c.exists() for c in candidates), (
                        f"{token} referenced in docs/design_space.md but missing"
                    )

    def test_cli_flags_are_real(self, design_space_doc):
        from repro.cli import build_parser  # noqa: PLC0415

        parser = build_parser()
        frontier_args = parser.parse_args(["frontier", "--tech", "all"])
        for flag in ("--tech", "--jobs", "--cache-dir", "--no-cache",
                     "--metrics"):
            assert flag in design_space_doc
            attr = flag.lstrip("-").replace("-", "_")
            assert hasattr(frontier_args, attr), f"{flag} not a frontier flag"
        delay_args = parser.parse_args(["delay", "--machine", "clustered"])
        assert "--machine" in design_space_doc
        assert delay_args.machine == "clustered"

    def test_documented_geometry_properties_exist(self, design_space_doc):
        from repro.uarch.config import MachineConfig  # noqa: PLC0415

        for prop in ("cluster_issue_widths", "reservation_tag_count"):
            assert prop in design_space_doc
            assert hasattr(MachineConfig, prop)

    def test_cross_links(self, design_space_doc, architecture_doc, readme):
        assert "architecture.md" in design_space_doc
        assert "testing.md" in design_space_doc
        assert "design_space.md" in architecture_doc
        assert "docs/design_space.md" in readme


class TestTestingDoc:
    @pytest.fixture(scope="class")
    def testing_doc(self):
        return (DOCS / "testing.md").read_text(encoding="utf-8")

    def test_every_suite_file_exists(self, testing_doc):
        """Every tests/ or benchmarks/ path the doc names must exist."""
        for line in testing_doc.splitlines():
            for token in line.split("`"):
                if token.startswith(("tests/", "benchmarks/")) and "<" not in token:
                    matches = list(ROOT.glob(token))
                    assert matches, (
                        f"{token} referenced in docs/testing.md but missing"
                    )

    def test_every_verify_module_documented(self, testing_doc):
        import repro.verify  # noqa: PLC0415

        for module in ("generator", "oracle", "minimize", "selftest"):
            assert f"repro.verify.{module}" in testing_doc
            __import__(f"repro.verify.{module}")

    def test_replay_recipe_flags_are_real(self, testing_doc):
        """The documented replay flags must exist on the fuzz CLI."""
        from repro.cli import build_parser  # noqa: PLC0415

        help_text = build_parser().parse_args(["fuzz", "--cases", "1"])
        for flag in ("--case-seed", "--fifo-only", "--first-case",
                     "--selftest"):
            assert flag in testing_doc
            attr = flag.lstrip("-").replace("-", "_")
            assert hasattr(help_text, attr), f"{flag} not a fuzz CLI flag"

    def test_machine_registry_single_source(self, testing_doc):
        assert "tests/machines.py" in testing_doc
        assert "MACHINE_REGISTRY" in testing_doc

    def test_cross_links(self, testing_doc, architecture_doc, readme):
        assert "architecture.md" in testing_doc
        assert "testing.md" in architecture_doc
        assert "docs/testing.md" in readme


@pytest.fixture(scope="module")
def observability_doc():
    return (DOCS / "observability.md").read_text(encoding="utf-8")


class TestObservabilityDoc:
    def test_every_metric_name_documented(self, observability_doc):
        from repro.obs.profiling import (
            CAMPAIGN_METRIC_NAMES,
            COMPILE_METRIC_NAMES,
            FUZZ_METRIC_NAMES,
            SIMULATION_METRIC_NAMES,
        )

        names = (CAMPAIGN_METRIC_NAMES + COMPILE_METRIC_NAMES
                 + FUZZ_METRIC_NAMES + SIMULATION_METRIC_NAMES)
        missing = [n for n in names if f"`{n}`" not in observability_doc]
        assert not missing, (
            f"metrics missing from docs/observability.md: {missing}")

    def test_cli_surfaces_documented_and_real(self, observability_doc):
        from repro.cli import main

        for surface in ("repro ledger list", "repro ledger show",
                        "repro ledger diff", "repro ledger gc",
                        "repro bench --check", "--progress",
                        "--ledger-dir"):
            assert surface.replace("repro ", "") in observability_doc, surface
        # ...and the documented commands parse (argparse exits 2 on
        # unknown commands/flags; these must not).
        assert main(["ledger", "list", "--limit", "1"]) == 0
        assert main(["bench"]) == 0

    def test_ledger_facts_match_code(self, observability_doc):
        from repro.obs.ledger import (
            DEFAULT_LEDGER_ROOT,
            LEDGER_DIR_ENV,
            Ledger,
        )

        assert LEDGER_DIR_ENV in observability_doc
        assert str(DEFAULT_LEDGER_ROOT) in observability_doc.replace(
            ".repro/ledger/", ".repro/ledger ")
        assert Ledger.FILENAME in observability_doc

    def test_regression_defaults_match_code(self, observability_doc):
        from repro.obs.regression import DEFAULT_THRESHOLD, DEFAULT_WINDOW

        assert f"(default {DEFAULT_WINDOW})" in observability_doc
        assert f"(default {DEFAULT_THRESHOLD})" in observability_doc
        for name in ("`recorded.floors`", "`check_bench`", "`medians`",
                     "`rounds`"):
            assert name in observability_doc, name

    def test_bench_files_documented_and_present(self, observability_doc):
        from repro.obs.regression import BENCH_NAMES

        for name in BENCH_NAMES:
            assert f"`BENCH_{name}.json`" in observability_doc
            assert (ROOT / f"BENCH_{name}.json").exists(), name

    def test_referenced_modules_exist(self, observability_doc):
        import importlib

        for module in ("repro.obs.metrics", "repro.obs.ledger",
                       "repro.obs.regression", "repro.obs.export"):
            assert f"`{module}`" in observability_doc
            importlib.import_module(module)


@pytest.fixture(scope="module")
def service_doc():
    return (DOCS / "service.md").read_text(encoding="utf-8")


class TestServiceDoc:
    def test_every_route_documented_and_no_phantom_routes(self, service_doc):
        import re

        from repro.service.schema import ROUTES

        for route in ROUTES:
            assert f"`{route}`" in service_doc, (
                f"route {route!r} missing from docs/service.md")
        # ...and every /v1/... path the doc typesets in backticks is a
        # real route (prefix match covers parameterised examples).
        for path in re.findall(r"`(/v1/[^`?]*)`", service_doc):
            assert any(path == r or path.startswith(r.split("<")[0])
                       for r in ROUTES), f"phantom route {path!r}"

    def test_every_serve_flag_documented_and_real(self, service_doc):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        for flag in ("--host", "--port", "--cache-dir", "--jobs", "--warm",
                     "--instructions", "--queue-depth", "--timeout",
                     "--progress"):
            assert f"`{flag}`" in service_doc, (
                f"serve flag {flag} missing from docs/service.md")
            attr = flag.lstrip("-").replace("-", "_")
            assert hasattr(args, attr), f"{flag} not a serve CLI flag"

    def test_schema_versions_documented(self, service_doc):
        from repro.core import results_io
        from repro.service.schema import SERVICE_SCHEMA

        assert "SERVICE_SCHEMA" in service_doc
        assert f"currently **{SERVICE_SCHEMA}**" in service_doc
        assert "FORMAT_VERSION" in service_doc
        assert f"currently\n  **{results_io.FORMAT_VERSION}**" \
            in service_doc or \
            f"currently **{results_io.FORMAT_VERSION}**" in service_doc
        assert "stats_format" in service_doc

    def test_every_metric_documented(self, service_doc):
        from repro.service.app import SERVICE_METRIC_NAMES

        missing = [n for n in SERVICE_METRIC_NAMES
                   if f"`{n}`" not in service_doc]
        assert not missing, (
            f"metrics missing from docs/service.md: {missing}")

    def test_every_error_code_documented(self, service_doc):
        from repro.service.schema import ERROR_CODES

        for status, code in ERROR_CODES.items():
            assert f"`{code}`" in service_doc, code
            assert str(status) in service_doc, status

    def test_referenced_files_exist(self, service_doc):
        for line in service_doc.splitlines():
            for token in line.split("`"):
                if token.startswith(("tests/", "benchmarks/", "scripts/",
                                     "src/", "repro/")) \
                        and "<" not in token and token.endswith(".py"):
                    candidates = [ROOT / token, ROOT / "src" / token]
                    assert any(c.exists() for c in candidates), (
                        f"{token} referenced in docs/service.md but missing")

    def test_bench_floor_matches_doc_and_record(self, service_doc):
        import json

        payload = json.loads(
            (ROOT / "BENCH_service.json").read_text(encoding="utf-8"))
        floor = payload["recorded"]["floors"]["warm_qps"]
        assert "`recorded.floors`" in service_doc
        assert f"`warm_qps` floor ({floor:,.0f} qps)" in service_doc
        assert payload["measured"]["warm_qps"] >= floor

    def test_ledger_kind_is_registered(self, service_doc):
        from repro.obs.ledger import RUN_KINDS

        assert "service" in RUN_KINDS
        assert "ledger list" in service_doc

    def test_cross_links(self, service_doc, architecture_doc, readme):
        assert "architecture.md" in service_doc
        assert "observability.md" in service_doc
        assert "service.md" in architecture_doc
        assert "docs/service.md" in readme


@pytest.fixture(scope="module")
def workloads_doc():
    return (DOCS / "workloads.md").read_text(encoding="utf-8")


class TestWorkloadsDoc:
    def test_every_registered_workload_documented(self, workloads_doc):
        from repro.workloads.registry import workload_names

        missing = [name for name in workload_names()
                   if f"`{name}`" not in workloads_doc]
        assert not missing, (
            f"workloads missing from docs/workloads.md: {missing}")

    def test_every_kind_documented(self, workloads_doc):
        from repro.workloads.registry import WORKLOAD_KINDS

        for kind in WORKLOAD_KINDS:
            assert f"`{kind}`" in workloads_doc, kind

    def test_version_constants_match_code(self, workloads_doc):
        from repro.core.campaign import model_fingerprint  # noqa: F401
        from repro.workloads.trace_format import TRACE_FORMAT_VERSION

        assert "model_fingerprint()" in workloads_doc
        assert "TRACE_FORMAT_VERSION" in workloads_doc
        assert f'"version": {TRACE_FORMAT_VERSION},' in workloads_doc

    def test_trace_format_fields_documented(self, workloads_doc):
        for field in ("format", "version", "name", "halted", "count",
                      "pc", "op", "srcs", "dest", "mem", "taken",
                      "next"):
            assert f'"{field}"' in workloads_doc, (
                f"trace-format field {field!r} missing from "
                "docs/workloads.md")

    def test_documented_symbols_exist(self, workloads_doc):
        from repro.workloads.registry import (  # noqa: F401
            register_external_trace,
            workload_identity,
        )
        from repro.workloads.trace_format import (  # noqa: F401
            TraceFormatError,
            load_trace,
            save_trace,
        )
        from repro.workloads.zoo import zoo_config  # noqa: F401

        for symbol in ("register_external_trace", "workload_identity",
                       "TraceFormatError", "load_trace", "save_trace",
                       "zoo_config"):
            assert symbol in workloads_doc, symbol

    def test_cli_flags_are_real(self, workloads_doc):
        from repro.cli import build_parser

        parser = build_parser()
        listing = parser.parse_args(["workloads"])
        assert "--kind" in workloads_doc and hasattr(listing, "kind")
        assert "--profile" in workloads_doc and hasattr(listing, "profile")
        simulate = parser.parse_args(
            ["simulate", "baseline", "--trace-file", "x.jsonl"])
        assert "--trace-file" in workloads_doc
        assert simulate.trace_file == "x.jsonl"
        campaign = parser.parse_args(
            ["campaign", "fig13", "--workloads", "zoo"])
        assert "--workloads" in workloads_doc
        assert campaign.workloads == "zoo"

    def test_referenced_files_exist(self, workloads_doc):
        for line in workloads_doc.splitlines():
            for token in line.split("`"):
                if token.startswith(("tests/", "benchmarks/", "src/")) \
                        and "<" not in token and "." in token:
                    assert (ROOT / token).exists(), (
                        f"{token} referenced in docs/workloads.md but "
                        "missing")

    def test_golden_fixture_exists(self, workloads_doc):
        assert "tests/data/golden_li64.jsonl" in workloads_doc
        assert (ROOT / "tests" / "data" / "golden_li64.jsonl").exists()

    def test_bench_record_matches_floor(self):
        # Every benchmark row has its own floor and recorded median,
        # and the committed measurement clears it.
        import json

        from benchmarks import bench_workloads  # noqa: PLC0415

        payload = json.loads(
            (ROOT / "BENCH_workloads.json").read_text(encoding="utf-8"))
        recorded = payload["recorded"]
        floors = recorded["floors"]
        rows = {*bench_workloads.GENERATION_ROWS,
                bench_workloads.INGESTION_ROW}
        assert (set(floors) == set(recorded["medians"])
                == set(payload["measured"]) == rows)
        for label, rate in payload["measured"].items():
            assert rate >= floors[label], (label, rate)

    def test_gen_row_floors_are_half_the_recorded_medians(self):
        from benchmarks import bench_workloads  # noqa: PLC0415

        rows = _check_floors_are_half_the_medians("workloads")
        assert rows == {*bench_workloads.GENERATION_ROWS,
                        bench_workloads.INGESTION_ROW}

    def test_cross_links(self, workloads_doc, architecture_doc, readme,
                         service_doc):
        assert "architecture.md" in workloads_doc
        assert "service.md" in workloads_doc
        assert "workloads.md" in architecture_doc
        assert "workloads.md" in service_doc
        assert "docs/workloads.md" in readme


class TestDocsIndex:
    @pytest.fixture(scope="class")
    def index_doc(self):
        return (DOCS / "index.md").read_text(encoding="utf-8")

    def test_every_docs_file_listed(self, index_doc):
        for path in sorted(DOCS.glob("*.md")):
            if path.name == "index.md":
                continue
            assert f"({path.name})" in index_doc, (
                f"docs/{path.name} missing from docs/index.md")

    def test_every_listed_file_exists(self, index_doc):
        import re

        for target in re.findall(r"\]\(([\w./-]+\.md)\)", index_doc):
            resolved = (DOCS / target).resolve()
            assert resolved.exists(), (
                f"docs/index.md links to {target} which does not exist")

    def test_readme_links_the_index(self, readme):
        assert "docs/index.md" in readme


class TestDocLinks:
    """Every relative link across docs/*.md and README.md resolves."""

    @pytest.mark.parametrize(
        "page", sorted(DOCS.glob("*.md")) + [ROOT / "README.md"],
        ids=lambda p: p.name)
    def test_relative_links_resolve(self, page):
        import re

        text = page.read_text(encoding="utf-8")
        broken = []
        for target in re.findall(r"\]\(([^)\s]+)\)", text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (page.parent / target.split("#")[0]).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"broken relative links in {page.name}: {broken}"


@pytest.fixture(scope="module")
def microarch_doc():
    return (DOCS / "microarchitectures.md").read_text(encoding="utf-8")


class TestMicroarchDoc:
    def test_every_registered_shape_documented(self, microarch_doc):
        from repro.core.machines import MACHINE_REGISTRY

        missing = [
            shape for shape in MACHINE_REGISTRY
            if f"`{shape}`" not in microarch_doc
        ]
        assert not missing, (
            f"shapes missing from docs/microarchitectures.md: {missing}")

    def test_every_machine_name_documented(self, microarch_doc):
        # The doc's shape table carries the config's .name -- the
        # label that appears in campaign results and the ledger.
        from repro.core.machines import MACHINE_REGISTRY

        missing = [
            factory().name for factory in MACHINE_REGISTRY.values()
            if f"`{factory().name}`" not in microarch_doc
        ]
        assert not missing, f"machine names out of sync: {missing}"

    def test_every_strategy_name_documented(self, microarch_doc):
        from repro.uarch.config import MachineConfig

        fields = MachineConfig.__dataclass_fields__
        for name in ("load_delay_tracking", "regfile_read_ports"):
            assert name in fields, name
            assert f"`{name}`" in microarch_doc, name

    def test_documented_stall_causes_are_real(self, microarch_doc):
        from repro.uarch.stats import StallCause

        values = {cause.value for cause in StallCause}
        assert "sched_wait" in values and "`sched_wait`" in microarch_doc
        assert "regfile_port" in values and "`regfile_port`" in microarch_doc

    def test_documented_symbols_exist(self, microarch_doc):
        from repro.core.campaign import model_fingerprint  # noqa: F401
        from repro.delay.critical_path import ldt_window_logic_ps  # noqa: F401

        for symbol in ("model_fingerprint", "ldt_window_logic_ps"):
            assert symbol in microarch_doc, symbol

    def test_referenced_files_exist(self, microarch_doc):
        import re

        for path in re.findall(r"`(src/[\w/]+\.py|tests/[\w/]+\.py)`",
                               microarch_doc):
            assert (ROOT / path).exists(), path

    def test_default_read_ports_match_factory(self, microarch_doc):
        import inspect

        from repro.core.machines import ports_limited_8way

        default = inspect.signature(
            ports_limited_8way).parameters["read_ports"].default
        assert f"(default {default};" in microarch_doc

    def test_cross_links(self, microarch_doc, architecture_doc, readme):
        assert "architecture.md" in microarch_doc
        assert "design_space.md" in microarch_doc
        assert "microarchitectures.md" in architecture_doc
        assert "docs/microarchitectures.md" in readme
