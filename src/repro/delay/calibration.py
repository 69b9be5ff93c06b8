"""Calibration of delay-model constants against the paper's data.

The paper obtained absolute delays from Hspice simulation of sized CMOS
circuits; the process decks are not available, so the models here keep
the paper's *functional forms* and fit their constants to the paper's
published numbers:

* Table 2 -- rename, wakeup+select, and bypass delays at the (4-way,
  32-entry) and (8-way, 64-entry) design points for all three
  technologies.  These are *hard anchors*: the fit weights them so
  heavily that the models interpolate them essentially exactly.
* Table 1 -- bypass wire lengths/delays (reproduced exactly, in closed
  form, by :mod:`repro.delay.bypass`).
* Table 4 -- reservation-table delays (fit in closed form).
* Section 4.2 text -- wakeup delay grows ~34% from 2-way to 4-way and
  ~46% from 4-way to 8-way at 64 entries.  These are *soft anchors*.
* Figure 8 -- selection delay at 64 entries; the split of Table 2's
  combined "wakeup + select" number between the two structures is not
  published, so we choose the selection delay at 64 entries per
  technology (``SELECT_AT_64_PS``) consistent with Figures 5 and 8 and
  derive the wakeup anchors from Table 2 by subtraction.  Because the
  arbiter tree has the same depth for 32- and 64-entry windows, the
  same selection delay applies to both Table 2 rows, which makes the
  derived wakeup anchors unique.

All fits are non-negative least squares over non-negative regressors,
which guarantees the fitted models are monotone non-decreasing in issue
width and window size.  The solver is :func:`fit_nonnegative`, an
in-repo Lawson & Hanson active-set method ("Solving Least Squares
Problems", 1974; the algorithm ``scipy.optimize.nnls`` wraps) run in
exact rational arithmetic on the weighted normal equations.  Exactness
is what lets it use normal equations at all: the wakeup regressors span
1 to IW**2 * WS**2 = 262,144 and the hard anchors weigh 1,000, so in
floating point the Gram matrix would square a large condition number.
Exact arithmetic also needs no round-off tolerance in the active-set
test, and each coefficient is the exact optimum correctly rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from repro.technology.params import Technology

#: Weight for anchors that must be interpolated (Table 2 data).
HARD_WEIGHT = 1000.0
#: Weight for shape constraints quoted approximately in the text.
SOFT_WEIGHT = 1.0

# --------------------------------------------------------------------------
# Published data (transcribed from the paper).
# --------------------------------------------------------------------------

#: Table 2: {tech name: {(issue width, window size):
#:   (rename ps, wakeup+select ps, bypass ps)}}.
TABLE2_PS: dict[str, dict[tuple[int, int], tuple[float, float, float]]] = {
    "0.8um": {(4, 32): (1577.9, 2903.7, 184.9), (8, 64): (1710.5, 3369.4, 1056.4)},
    "0.35um": {(4, 32): (627.2, 1248.4, 184.9), (8, 64): (726.6, 1484.8, 1056.4)},
    "0.18um": {(4, 32): (351.0, 578.0, 184.9), (8, 64): (427.9, 724.0, 1056.4)},
}

#: Table 1: bypass wire length (lambda) and delay (ps) by issue width.
TABLE1 = {4: (20500.0, 184.9), 8: (49000.0, 1056.4)}

#: Table 4: reservation-table delay at 0.18 um by issue width, with the
#: paper's physical register counts and table organisations.
TABLE4_018 = {
    4: {"physical_registers": 80, "entries": 10, "bits": 8, "delay_ps": 192.1},
    8: {"physical_registers": 128, "entries": 16, "bits": 8, "delay_ps": 251.7},
}

#: Section 4.2: wakeup delay growth at a 64-entry window.
WAKEUP_GROWTH_2_TO_4 = 1.34
WAKEUP_GROWTH_4_TO_8 = 1.46

#: Share of the delta between Table 2's two design points attributed to
#: window growth rather than issue-width growth, per technology (see
#: the mid-window soft anchor in :func:`_wakeup_coefficients`).
WAKEUP_WINDOW_SHARE = {"0.8um": 0.40, "0.35um": 0.50, "0.18um": 0.60}

#: Selection delay at a 64-entry window per technology (the modelling
#: choice that splits Table 2's combined wakeup+select; see module
#: docstring).  Values are consistent with the magnitudes in Figure 8.
SELECT_AT_64_PS = {"0.8um": 2000.0, "0.35um": 756.0, "0.18um": 360.0}

#: Share of the selection delay spent in the root cell (window-size
#: independent); the remainder is split over request/grant propagation.
SELECT_ROOT_FRACTION = 0.25
#: Of the propagation delay, the request path's share (it includes the
#: priority encoding; the grant path is a simple demux).
SELECT_REQUEST_SHARE = 0.55


def _check_tech(tech: Technology) -> str:
    if tech.name not in TABLE2_PS:
        known = ", ".join(TABLE2_PS)
        raise KeyError(f"no calibration data for technology {tech.name!r} (known: {known})")
    return tech.name


def _solve_positive_definite(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction]:
    """Exact Gaussian elimination; the matrix is a Gram matrix of
    independent columns, so no pivot is ever zero."""
    size = len(rhs)
    augmented = [row[:] + [value] for row, value in zip(matrix, rhs)]
    for k in range(size):
        for row in augmented[k + 1:]:
            factor = row[k] / augmented[k][k]
            for j in range(k, size + 1):
                row[j] -= factor * augmented[k][j]
    solution = [Fraction(0)] * size
    for k in reversed(range(size)):
        known = sum((augmented[k][j] * solution[j] for j in range(k + 1, size)), Fraction(0))
        solution[k] = (augmented[k][size] - known) / augmented[k][k]
    return solution


def fit_nonnegative(
    rows: list[list[float]], targets: list[float], weights: list[float]
) -> list[float]:
    """Weighted non-negative least squares.

    Minimises ``sum(w * (row . x - target)**2)`` subject to ``x >= 0``
    by Lawson & Hanson's active-set method, in exact rational
    arithmetic over the weighted normal equations.

    Args:
        rows: Regressor rows (one per observation).
        targets: Observed values.
        weights: Per-observation weights.

    Returns:
        Coefficient list with all entries >= 0: the exact solution,
        each coefficient correctly rounded to a plain float.
    """
    exact = [[Fraction(value) for value in row] for row in rows]
    exact_weights = [Fraction(weight) for weight in weights]
    columns = range(len(exact[0]))
    gram = [
        [sum((w * row[i] * row[j] for row, w in zip(exact, exact_weights)), Fraction(0))
         for j in columns]
        for i in columns
    ]
    moment = [
        sum((w * row[i] * Fraction(t) for row, w, t in zip(exact, exact_weights, targets)),
            Fraction(0))
        for i in columns
    ]
    x = [Fraction(0)] * len(columns)
    passive: list[int] = []
    while True:
        # Minus the gradient of half the weighted squared residual.
        descent = [
            moment[i] - sum((g * v for g, v in zip(gram[i], x)), Fraction(0)) for i in columns
        ]
        free = [j for j in columns if j not in passive and descent[j] > 0]
        if not free:
            return [float(value) for value in x]
        passive.append(max(free, key=descent.__getitem__))
        while True:
            z = _solve_positive_definite(
                [[gram[i][j] for j in passive] for i in passive], [moment[i] for i in passive]
            )
            if all(value > 0 for value in z):
                for j, value in zip(passive, z):
                    x[j] = value
                break
            # Step from x towards z until the first coordinate hits 0.
            step = min(x[j] / (x[j] - value) for j, value in zip(passive, z) if value <= 0)
            for j, value in zip(passive, z):
                x[j] += step * (value - x[j])
            passive = [j for j in passive if x[j] > 0]


# --------------------------------------------------------------------------
# Rename logic: T(IW) = c0 + c1*IW + c2*IW**2.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RenameCoefficients:
    """Fitted coefficients of the rename delay polynomial."""

    c0: float
    c1: float
    c2: float

    def evaluate(self, issue_width: int) -> float:
        return self.c0 + self.c1 * issue_width + self.c2 * issue_width**2


#: One weighted fit: regressor rows, targets and weights.
FitSystem = tuple[list[list[float]], list[float], list[float]]


def _rename_system(tech_name: str) -> FitSystem:
    anchors = TABLE2_PS[tech_name]
    t4 = anchors[(4, 32)][0]
    t8 = anchors[(8, 64)][0]
    # Figure 3 shows a nearly linear trend; the soft 2-wide point
    # extrapolates that linearity backwards.
    t2_soft = t4 - (t8 - t4) / 2.0
    rows = [[1.0, 4.0, 16.0], [1.0, 8.0, 64.0], [1.0, 2.0, 4.0]]
    targets = [t4, t8, t2_soft]
    weights = [HARD_WEIGHT, HARD_WEIGHT, SOFT_WEIGHT]
    return rows, targets, weights


@lru_cache(maxsize=None)
def _rename_coefficients(tech_name: str) -> RenameCoefficients:
    c0, c1, c2 = fit_nonnegative(*_rename_system(tech_name))
    return RenameCoefficients(c0=c0, c1=c1, c2=c2)


def rename_coefficients(tech: Technology) -> RenameCoefficients:
    """Fitted rename-delay coefficients for one technology."""
    return _rename_coefficients(_check_tech(tech))


# --------------------------------------------------------------------------
# Wakeup logic:
#   T(IW, WS) = c0 + c1*IW + c2*IW**2        (tag match + match OR)
#             + (c3 + c4*IW)*WS + c5*IW**2*WS**2   (tag drive)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WakeupCoefficients:
    """Fitted coefficients of the wakeup delay model."""

    c0: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float

    def base(self, issue_width: int) -> float:
        """Window-size-independent part (tag match + match OR)."""
        return self.c0 + self.c1 * issue_width + self.c2 * issue_width**2

    def tag_drive(self, issue_width: int, window_size: int) -> float:
        """Window-size-dependent part (tag drive)."""
        linear = (self.c3 + self.c4 * issue_width) * window_size
        quadratic = self.c5 * issue_width**2 * window_size**2
        return linear + quadratic

    def evaluate(self, issue_width: int, window_size: int) -> float:
        return self.base(issue_width) + self.tag_drive(issue_width, window_size)


def wakeup_anchor_ps(tech_name: str, issue_width: int, window_size: int) -> float:
    """Wakeup delay at a Table 2 design point (Table 2 minus selection)."""
    combined = TABLE2_PS[tech_name][(issue_width, window_size)][1]
    return combined - SELECT_AT_64_PS[tech_name]


def _row(issue_width: float, window_size: float) -> list[float]:
    return [
        1.0,
        issue_width,
        issue_width**2,
        window_size,
        issue_width * window_size,
        issue_width**2 * window_size**2,
    ]


def _wakeup_system(tech_name: str) -> FitSystem:
    hard_4_32 = wakeup_anchor_ps(tech_name, 4, 32)
    hard_8_64 = wakeup_anchor_ps(tech_name, 8, 64)
    # Soft shape anchors from the Section 4.2 growth percentages,
    # expressed relative to the hard 8-way/64-entry point.
    soft_4_64 = hard_8_64 / WAKEUP_GROWTH_4_TO_8
    soft_2_64 = soft_4_64 / WAKEUP_GROWTH_2_TO_4
    # A soft mid-window anchor pins the split between issue-width and
    # window-size terms, which the two hard anchors alone cannot
    # identify.  The share of the (4,32)->(8,64) delta attributed to
    # window growth rises as the feature size shrinks, because tag-line
    # wire delay does not scale while logic does (Figure 6).
    window_share = WAKEUP_WINDOW_SHARE[tech_name]
    soft_8_32 = hard_8_64 - window_share * (hard_8_64 - hard_4_32)
    rows = [_row(4, 32), _row(8, 64), _row(4, 64), _row(2, 64), _row(8, 32)]
    targets = [hard_4_32, hard_8_64, soft_4_64, soft_2_64, soft_8_32]
    weights = [
        HARD_WEIGHT,
        HARD_WEIGHT,
        10 * SOFT_WEIGHT,
        10 * SOFT_WEIGHT,
        10 * SOFT_WEIGHT,
    ]
    return rows, targets, weights


@lru_cache(maxsize=None)
def _wakeup_coefficients(tech_name: str) -> WakeupCoefficients:
    return WakeupCoefficients(*fit_nonnegative(*_wakeup_system(tech_name)))


def wakeup_coefficients(tech: Technology) -> WakeupCoefficients:
    """Fitted wakeup-delay coefficients for one technology."""
    return _wakeup_coefficients(_check_tech(tech))


# --------------------------------------------------------------------------
# Selection logic: T(WS) = (t_req + t_grant) * levels(WS) + t_root.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionCoefficients:
    """Per-level propagation delays and the root-cell delay."""

    request_per_level: float
    grant_per_level: float
    root: float


@lru_cache(maxsize=None)
def _selection_coefficients(tech_name: str) -> SelectionCoefficients:
    anchor = SELECT_AT_64_PS[tech_name]
    # A 64-entry window needs a depth-3 tree of 4-input arbiters.
    levels_at_64 = 3
    root = SELECT_ROOT_FRACTION * anchor
    per_level = (anchor - root) / levels_at_64
    return SelectionCoefficients(
        request_per_level=SELECT_REQUEST_SHARE * per_level,
        grant_per_level=(1.0 - SELECT_REQUEST_SHARE) * per_level,
        root=root,
    )


def selection_coefficients(tech: Technology) -> SelectionCoefficients:
    """Fitted selection-delay coefficients for one technology."""
    return _selection_coefficients(_check_tech(tech))


# --------------------------------------------------------------------------
# Reservation table: T = a + b*entries + c*issue_width (at 0.18 um),
# scaled by the technology's logic-speed factor elsewhere.
# --------------------------------------------------------------------------

#: Port cost per issue-width unit, in ps at 0.18 um.  Fixed (the two
#: Table 4 points cannot identify all three constants); 5 ps/port is a
#: small fraction of the total, consistent with the table's weak
#: issue-width dependence.
RESERVATION_PORT_COST_PS = 5.0


@dataclass(frozen=True)
class ReservationCoefficients:
    """Reservation-table delay constants at 0.18 um."""

    base: float
    per_entry: float
    per_issue: float

    def evaluate(self, entries: int, issue_width: int) -> float:
        return self.base + self.per_entry * entries + self.per_issue * issue_width


@lru_cache(maxsize=None)
def _reservation_coefficients() -> ReservationCoefficients:
    point4 = TABLE4_018[4]
    point8 = TABLE4_018[8]
    c = RESERVATION_PORT_COST_PS
    lhs4 = point4["delay_ps"] - c * 4
    lhs8 = point8["delay_ps"] - c * 8
    per_entry = (lhs8 - lhs4) / (point8["entries"] - point4["entries"])
    base = lhs4 - per_entry * point4["entries"]
    return ReservationCoefficients(base=base, per_entry=per_entry, per_issue=c)


def reservation_coefficients() -> ReservationCoefficients:
    """Fitted reservation-table constants (0.18 um reference)."""
    return _reservation_coefficients()
