"""The in-repo NNLS behind the delay calibration.

The six calibration fits (rename and wakeup for each technology) are
pinned to the coefficients ``scipy.optimize.nnls`` produced before the
package dropped scipy, every fit is checked against the KKT conditions
of non-negative least squares, and small hand and random cases check
the solver on its own.  A fresh interpreter then proves that no entry
point imports numpy or scipy.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.delay import calibration
from repro.delay.calibration import (
    _rename_system,
    _wakeup_system,
    fit_nonnegative,
)
from repro.technology import TECHNOLOGIES

SRC = Path(__file__).resolve().parent.parent / "src"

#: Coefficients fitted by scipy 1.17.1's ``nnls`` from the same systems,
#: recorded once before the in-repo solver replaced it.
SCIPY_COEFFICIENTS = {
    ("rename", "0.8um"): [1445.3000000000006, 33.149999999999956, 0.0],
    ("rename", "0.35um"): [527.8000000000003, 24.849999999999877, 1.2079879998571622e-14],
    ("rename", "0.18um"): [274.10000000000014, 19.224999999999977, 0.0],
    ("wakeup", "0.8um"): [
        608.0501363299621, 70.60869114708326, 0.0, 0.0, 0.0, 0.0007492037067984239],
    ("wakeup", "0.35um"): [
        350.46174573631345, 33.540165024903985, 0.0, 0.0, 0.0, 0.00041931060610111054],
    ("wakeup", "0.18um"): [
        163.5361719931595, 9.817840986485503, 0.0, 0.0, 0.07760969770127833,
        0.00031351064640770717],
}

SYSTEMS = {"rename": _rename_system, "wakeup": _wakeup_system}


def nnls(rows, target):
    return fit_nonnegative(rows, target, [1.0] * len(rows))


def _gradient(rows, target, weights, x):
    """Gradient of 0.5 * sum(w * (row . x - t)^2), i.e. A^T W (A x - b)."""
    residual = [w * (math.fsum(a * b for a, b in zip(row, x)) - t)
                for row, t, w in zip(rows, target, weights)]
    return [math.fsum(row[j] * r for row, r in zip(rows, residual))
            for j in range(len(x))]


def assert_kkt(rows, target, x, weights=None, rel=1e-9):
    """x >= 0; the gradient is 0 where x > 0 and >= 0 where x == 0,
    both to ``rel`` of the gradient's scale at x = 0."""
    weights = weights or [1.0] * len(rows)
    scale = max(map(abs, _gradient(rows, target, weights, [0.0] * len(x)))) or 1.0
    gradient = _gradient(rows, target, weights, x)
    for value, slope in zip(x, gradient):
        assert value >= 0.0
        if value > 0.0:
            assert abs(slope) <= rel * scale, (x, gradient)
        else:
            assert slope >= -rel * scale, (x, gradient)


@pytest.mark.parametrize("tech", TECHNOLOGIES, ids=lambda tech: tech.name)
@pytest.mark.parametrize("model", sorted(SYSTEMS))
class TestCalibrationFits:
    def test_matches_the_scipy_coefficients(self, model, tech):
        fitted = fit_nonnegative(*SYSTEMS[model](tech.name))
        pinned = SCIPY_COEFFICIENTS[(model, tech.name)]
        assert len(fitted) == len(pinned)
        for got, want in zip(fitted, pinned):
            assert type(got) is float
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-9), (fitted, pinned)

    def test_satisfies_kkt(self, model, tech):
        rows, target, weights = SYSTEMS[model](tech.name)
        assert_kkt(rows, target, fit_nonnegative(rows, target, weights), weights)


class TestNnls:
    def test_unconstrained_optimum_is_interior(self):
        # scipy's docstring example.
        assert nnls([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [2.0, 1.0, 1.0]) == [1.5, 1.0]

    def test_every_constraint_active(self):
        assert nnls([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0, -1.0]) == [0.0, 0.0]

    def test_one_constraint_active(self):
        # The unconstrained optimum is (3, -1); clamping x1 at 0 refits
        # x0 to 2.5 on the column left.
        rows = [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        x = nnls(rows, [2.0, 3.0, -1.0])
        assert x[1] == 0.0
        assert x[0] == 2.5
        assert_kkt(rows, [2.0, 3.0, -1.0], x)

    def test_a_constraint_leaves_the_passive_set(self, monkeypatch):
        # Column 2 enters first (largest gradient), column 1 follows,
        # and the joint least squares drive column 2 back to 0.
        solved = []

        def recording(matrix, rhs):
            solved.append(len(rhs))
            return least_squares(matrix, rhs)

        least_squares = calibration._solve_positive_definite
        monkeypatch.setattr(calibration, "_solve_positive_definite", recording)
        rows = [[4.0, 2.0, 3.0], [2.0, 4.0, 4.0], [0.0, 3.0, 4.0]]
        target = [-1.0, 5.0, 5.0]
        x = nnls(rows, target)
        assert solved == [1, 2, 1]
        assert x[0] == x[2] == 0.0
        assert x[1] == 33 / 29
        assert_kkt(rows, target, x)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda columns: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=columns, max_size=columns),
                 min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), min_size=6, max_size=6))))
    def test_random_problems_satisfy_kkt(self, problem):
        rows, target = problem
        rows = [[float(value) for value in row] for row in rows]
        target = [float(value) for value in target[:len(rows)]]
        assert_kkt(rows, target, nnls(rows, target))


def test_no_source_module_imports_numpy_or_scipy():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            roots = {name.split(".")[0] for name in names}
            assert not roots & {"numpy", "scipy"}, (path, names)


def test_entry_points_load_neither_numpy_nor_scipy():
    script = (
        "import sys\n"
        "import repro.cli, repro.service.app, repro.core.campaign\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
