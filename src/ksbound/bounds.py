"""Error-rate bounds for KS sets and the published six-row results table.

The central quantity is the inequality margin 1 - M*delta - N*epsilon: a
non-contextual description is impossible whenever it is positive.  Under
independent per-result flips at rate r the two rates become
delta(r) = 2r - 2r^2 and epsilon(r, d) = 1 - (1-r)^d - (d-1)(1-r)^(d-2) r^2,
and the largest r still forcing a contradiction is the root of
g(r) = M*delta(r) + N*epsilon(r, d) = 1, found here by a bisection over the
floats whose every step is decided exactly.
"""
from __future__ import annotations

import math
import struct
from fractions import Fraction
from typing import NamedTuple, Union

from .model import check_dimension, check_integer

Number = Union[int, float, Fraction]


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


def _float(bits: int) -> float:
    # the float with these IEEE bits; non-negative floats sort as their bits do
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _excess(x: Union[float, Fraction], N: int, M: int, d: int) -> int:
    # q^d * (g(x) - 1) for x = m/q, exactly: its sign is that of g(x) - 1
    m, q = x.as_integer_ratio()
    t = q - m
    return 2 * M * m * t * q ** (d - 2) + N * (q**d - t**d - (d - 1) * t ** (d - 2) * m * m) - q**d


def critical_rate(N: int, M: int, d: int) -> CriticalRate:
    """The root of g(r) = 1 in (0, 1/2], as the float nearest to it.

    g(0) = 0 and g is strictly increasing on (0, 1/2], so the root is
    unique and is the largest rate that still certifies a contradiction.
    The lemma: delta'(r) = 2 - 4r > 0 on [0, 1/2), and with t = 1 - r,
    epsilon'(r) = t^(d-3) * Q with Q = d*t^2 - 2(d-1)*r*t + (d-1)(d-2)*r^2,
    a quadratic form in (t, r) with leading coefficient d > 0 and
    discriminant 4(d-1)(3d - 1 - d^2) < 0 for every d >= 3; so Q > 0, and
    epsilon' > 0 wherever t > 0.  The bracket always holds the root:
    g(1/2) = M/2 + N(1 - d/2^d) >= 9/8 for every
    N, M >= 1 and d >= 3.  The search bisects the IEEE bit patterns of the
    floats between 0 and 1/2, deciding each step's sign of g - 1 exactly in
    integers, so it makes at most 62 halvings for any N and M.  It ends on
    two adjacent floats with g(bracket_low) < 1 <= g(bracket_high), and ``r``
    is the nearer of the two, by the exact sign at their midpoint.  floor4
    truncates the exact value of ``r`` to 4 decimals for comparison against
    published tables (the rate is a supremum, so truncation, not rounding, is
    the faithful reduction).

    A root that rounds to 0.0 raises OverflowError, as a reported value no
    float carries does.  ``check_dimension`` caps d at ``MAX_DIMENSION``, which
    bounds the cost of a step.
    """
    N, M = check_integer(N, "N", 1), check_integer(M, "M", 1)
    check_dimension(d)
    lo, hi = 0, 0x3FE0_0000_0000_0000  # the bits of 0.0 and of 0.5
    iterations = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _excess(_float(mid), N, M, d) < 0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    low, high = _float(lo), _float(hi)
    r = low if _excess((Fraction(low) + Fraction(high)) / 2, N, M, d) >= 0 else high
    if not r:
        raise OverflowError("critical rate is too small for a float")
    return CriticalRate(
        r=r,
        floor4=math.floor(Fraction(r) * 10_000) / 10_000,
        bracket_low=low,
        bracket_high=high,
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
