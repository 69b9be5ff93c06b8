"""The default instruction budget is single-sourced.

``repro.core.experiments.DEFAULT_INSTRUCTIONS`` is the one place the
default dynamic-instruction budget lives; the CLI parsers, the
benchmark harness, the recording script and the examples must all
read it from there rather than restating the magic number.
"""

import ast
import importlib.util
from pathlib import Path

from repro.cli import build_parser
from repro.core.experiments import DEFAULT_INSTRUCTIONS

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_defaults_come_from_experiments():
    parser = build_parser()
    for argv in (
        ["simulate", "baseline", "li"],
        ["campaign", "fig13"],
        ["frontier"],
    ):
        args = parser.parse_args(argv)
        assert args.instructions == DEFAULT_INSTRUCTIONS, argv


def test_cli_help_states_the_default():
    parser = build_parser()
    sub = parser.parse_args(["campaign", "fig13"])
    assert sub.instructions == DEFAULT_INSTRUCTIONS
    # The help string is generated from the constant, not hand-typed.
    source = (REPO_ROOT / "src" / "repro" / "cli.py").read_text(
        encoding="utf-8"
    )
    assert "default=20_000" not in source
    assert "default=20000" not in source


def test_benchmark_harness_is_single_sourced(monkeypatch):
    conftest = _load_module(
        REPO_ROOT / "benchmarks" / "conftest.py", "bench_conftest_under_test"
    )
    monkeypatch.delenv("REPRO_BENCH_INSTRUCTIONS", raising=False)
    assert conftest.bench_instructions() == DEFAULT_INSTRUCTIONS
    monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "123")
    assert conftest.bench_instructions() == 123


def test_record_script_is_single_sourced():
    source = (REPO_ROOT / "scripts" / "record_experiments.py").read_text(
        encoding="utf-8"
    )
    assert "DEFAULT_INSTRUCTIONS" in source
    assert "default=20_000" not in source
    assert "default=20000" not in source


def _budget_defaults(path: Path):
    """The ``default=`` of every ``-n/--instructions`` option in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "add_argument"
                and any(isinstance(arg, ast.Constant)
                        and arg.value in ("-n", "--instructions")
                        for arg in node.args)):
            for keyword in node.keywords:
                if keyword.arg == "default":
                    yield keyword.value


def test_examples_read_the_default_budget():
    examples = sorted((REPO_ROOT / "examples").glob("*.py"))
    checked = 0
    for path in examples:
        for default in _budget_defaults(path):
            checked += 1
            assert not isinstance(default, ast.Constant), (
                f"{path.name} restates a literal budget default")
    assert checked >= 3  # clock_speedup, steering_comparison, ...
