"""Error-rate bounds for KS sets and the published six-row results table.

The central quantity is the inequality margin 1 - M*delta - N*epsilon: a
non-contextual description is impossible whenever it is positive.  Under
independent per-result flips at rate r the two rates become
delta(r) = 2r - 2r^2 and epsilon(r, d) = 1 - (1-r)^d - (d-1)(1-r)^(d-2) r^2,
and the largest r still forcing a contradiction is the root of
g(r) = M*delta(r) + N*epsilon(r, d) = 1, found here by bisection.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

from .model import check_dimension, check_integer

Number = Union[int, float, Fraction]

BISECTION_TOLERANCE = 1e-12
_BRACKET_HIGH = 0.5


def inequality_margin(M: int, N: int, delta: Number, epsilon: Number) -> Number:
    """The margin 1 - M*delta - N*epsilon; a contradiction iff strictly positive.

    Arithmetic is type-preserving: exact inputs (int/Fraction) give an exact
    margin, floats give a float whose sign agrees bit-for-bit with
    ``independent_error_lhs`` when the rates come from the analytic model.
    """
    M, N = check_integer(M, "M", 0), check_integer(N, "N", 0)
    return 1 - (M * delta + N * epsilon)


def delta_lower_bound(N: int, M: int, epsilon: Number) -> Fraction:
    """Least rotation-error rate (1 - N*epsilon)/M compatible with no contradiction.

    Clamped below at zero, so the floor is 0, a vacuous bound, exactly when
    epsilon >= 1/N.  The floor is a Fraction: exact for an exact epsilon
    (epsilon = 0 gives exactly 1/M), and for a float epsilon the exact
    quotient of the float difference 1 - N*epsilon by M.
    """
    N, M = check_integer(N, "N", 0), check_integer(M, "M", 1)
    return Fraction(max(0, 1 - N * epsilon)) / M


def delta_analytic(r: float) -> float:
    """Mismatch rate of one shared result under two independent flips at rate r.

    Agreement survives when neither copy flips or both do: (1-r)^2 + r^2.
    """
    check_rate(r)
    return 2 * r - 2 * r * r


def epsilon_analytic(r: float, d: int) -> float:
    """Context sum-error rate under d independent flips at rate r.

    A valid pattern stays valid when nothing flips, or the zero and exactly
    one of the d-1 ones flip together: (1-r)^d + (d-1)(1-r)^(d-2) r^2.
    """
    check_rate(r)
    check_dimension(d)
    t = 1 - r
    return 1 - t**d - (d - 1) * t ** (d - 2) * r * r


def independent_error_lhs(r: float, N: int, M: int, d: int) -> float:
    """g(r) = M*delta_analytic(r) + N*epsilon_analytic(r, d).

    A contradiction with non-contextuality persists exactly while g(r) < 1.
    """
    return M * delta_analytic(r) + N * epsilon_analytic(r, d)


class CriticalRate(NamedTuple):
    """Root of g(r) = 1 with its bisection certificate."""

    r: float
    floor4: float
    bracket_low: float
    bracket_high: float
    iterations: int


def critical_rate(N: int, M: int, d: int) -> CriticalRate:
    """Smallest r > 0 with g(r) = 1, by bisection on [0, 1/2] to 1e-12.

    g(0) = 0 and g is strictly increasing at the scales of interest, so the
    root is the largest rate that still certifies a contradiction.  The
    bracket always holds it: g(1/2) = M/2 + N(1 - d/2^d) >= 9/8 for every
    N, M >= 1 and d >= 3.  floor4 truncates to 4 decimals for comparison
    against published tables (the rate is a supremum, so truncation, not
    rounding, is the faithful reduction).

    The stopping width is absolute: every call makes exactly 39 halvings and
    ends at a width of 2^-40 (about 9.09e-13), so ``r`` is accurate only to
    about 1e-12, absolute.  A root below that is not found: for N = 10^23 - 1,
    M = 1, d = 3 the root is near 3.3e-24, but ``r`` is 2^-41 (4.55e-13).
    ``floor4`` is still right.  ROADMAP.md item 2 plans the fix.
    """
    N, M = check_integer(N, "N", 1), check_integer(M, "M", 1)
    check_dimension(d)
    lo, hi = 0.0, _BRACKET_HIGH
    iterations = 0
    while hi - lo > BISECTION_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if independent_error_lhs(mid, N, M, d) < 1:
            lo = mid
        else:
            hi = mid
        iterations += 1
    r = 0.5 * (lo + hi)
    return CriticalRate(
        r=r,
        floor4=math.floor(r * 10_000) / 10_000,
        bracket_low=lo,
        bracket_high=hi,
        iterations=iterations,
    )


class TableRow(NamedTuple):
    """One published parameter row; n_label keeps the extended(original) form."""

    name: str
    d: int
    n_label: str
    N: int
    M: int


#: The six published parameter rows (d=3 rows are extended vector sets whose
#: original sizes appear in parentheses; their coordinates are not bundled).
TABLE_ROWS: tuple[TableRow, ...] = (
    TableRow("Peres", 3, "57 (33)", 40, 96),
    TableRow("Kochen & Conway", 3, "51 (31)", 37, 91),
    TableRow("Schutte", 3, "49 (33)", 36, 87),
    TableRow("Kernaghan & Peres", 8, "36", 11, 72),
    TableRow("Kernaghan", 4, "20", 11, 30),
    TableRow("Cabello et al", 4, "18", 9, 18),
)


def table_report() -> tuple[tuple[TableRow, CriticalRate], ...]:
    """The published rows, each paired with its computed critical rate."""
    return tuple((row, critical_rate(row.N, row.M, row.d)) for row in TABLE_ROWS)


def check_rate(r: Number, name: str = "rate") -> Number:
    """Return r; raise ValueError unless 0 <= r <= 1.  A nan fails, as every
    comparison with it does.  ``name`` is what the message calls the value,
    such as a command-line flag."""
    if not 0 <= r <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {r}")
    return r
