"""Cache identity is derived from the simulator's source.

``repro.core.campaign.model_fingerprint`` hashes every module of
``MODEL_PACKAGES``; the campaign cache key, the grid fingerprint (the
campaign/frontier ledger hash) and the service cell key all fold it
in.  These tests prove the two properties that make that sound:

* editing a timing module -- in a copy of the source tree, run in a
  fresh interpreter -- changes all three keys, while editing a
  non-timing module (``repro.report``) changes none, so warm-cache
  runs survive presentation edits;
* the fingerprinted packages import nothing outside themselves except
  ``repro.obs.events`` (tracing, not timing), so a new timing
  dependency fails here until it is added to ``MODEL_PACKAGES``.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import campaign
from repro.core.campaign import MODEL_PACKAGES, model_fingerprint

SRC = Path(__file__).resolve().parent.parent / "src"

#: Prints the three cache keys of one cell as JSON; the service cell
#: key is the one a ``/v1/cell`` answer reports.
_KEYS_SCRIPT = """
import asyncio
import concurrent.futures
import json
from repro.core.campaign import cache_key, grid_fingerprint
from repro.core.machines import baseline_8way
from repro.service import DesignSpaceService

config = baseline_8way()
service = DesignSpaceService(
    {"baseline": config}, cache_dir=None,
    executor=concurrent.futures.ThreadPoolExecutor(max_workers=1))
status, _, body = asyncio.run(service.handle_http(
    "GET", "/v1/cell?machine=baseline&workload=li&n=2000"))
assert status == 200, body
print(json.dumps({
    "cache_key": cache_key(config, "li", 2000),
    "grid_fingerprint": grid_fingerprint({"baseline": config}, ("li",), 2000),
    "service_cell_key": json.loads(body)["cache_key"],
}))
"""

#: Imports from outside MODEL_PACKAGES that cannot affect SimStats.
_NON_TIMING_IMPORTS = ("repro.obs.events",)


def _keys(src_root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src_root))
    done = subprocess.run(
        [sys.executable, "-c", _KEYS_SCRIPT], env=env, capture_output=True,
        text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{old!r} not unique in {path}"
    path.write_text(text.replace(old, new), encoding="utf-8")


def _copy_tree(tmp_path: Path) -> Path:
    root = tmp_path / "src"
    shutil.copytree(SRC / "repro", root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_timing_edit_changes_every_key_and_report_edit_none(tmp_path):
    root = _copy_tree(tmp_path)
    before = _keys(root)

    pipeline = root / "repro" / "uarch" / "pipeline.py"
    original = pipeline.read_text(encoding="utf-8")
    _edit(pipeline, "REGFILE_WRITE_DELAY = 2", "REGFILE_WRITE_DELAY = 3")
    timing_edited = _keys(root)
    for name, key in before.items():
        assert timing_edited[name] != key, name

    pipeline.write_text(original, encoding="utf-8")
    _edit(root / "repro" / "report" / "figures.py",
          '_BAR = "#"', '_BAR = "="')
    assert _keys(root) == before


def _model_modules() -> list[Path]:
    paths = []
    for package in MODEL_PACKAGES:
        directory = SRC.joinpath(*package.split("."))
        paths.extend(sorted(directory.rglob("*.py")))
    return paths


def _repro_imports(tree: ast.AST) -> list[str]:
    """Every ``repro`` module a parsed source file imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative imports hide dependencies"
            if node.module == "repro":
                names.extend(f"repro.{alias.name}" for alias in node.names)
            else:
                names.append(node.module)
    return [name for name in names
            if name == "repro" or name.startswith("repro.")]


def test_model_packages_import_only_each_other():
    inside = MODEL_PACKAGES + _NON_TIMING_IMPORTS
    modules = _model_modules()
    assert len(modules) > 30
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name in _repro_imports(tree):
            if not any(name == pkg or name.startswith(pkg + ".")
                       for pkg in inside):
                offenders.append(f"{path.relative_to(SRC)} imports {name}")
    assert not offenders, (
        "a fingerprinted package imports a module outside "
        "MODEL_PACKAGES; add it there if it can change SimStats: "
        f"{offenders}")


def test_fingerprint_is_memoized_and_stable():
    first = model_fingerprint()
    assert len(first) == 64
    assert model_fingerprint() is first
    assert campaign.model_fingerprint.__wrapped__() == first


def test_unreadable_model_source_raises(tmp_path, monkeypatch):
    root = _copy_tree(tmp_path)
    (root / "repro" / "uarch" / "gone.py").symlink_to(tmp_path / "missing")
    monkeypatch.setattr(campaign, "_REPRO_ROOT", root / "repro")
    with pytest.raises(OSError):
        campaign.model_fingerprint.__wrapped__()
