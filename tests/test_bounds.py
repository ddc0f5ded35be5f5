"""Inequality margin, delta floor, analytic error model, critical rates."""
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import ksbound as kb
from ksbound import (
    TABLE_ROWS,
    critical_rate,
    delta_analytic,
    delta_lower_bound,
    epsilon_analytic,
    independent_error_lhs,
    inequality_margin,
)
from ksbound.cli import main

# Independently frozen crossings (exact-rational bisection to 2^-120, see the
# oracle test below which re-derives them from scratch).
FROZEN_CROSSINGS = {
    "Peres": 0.0032181272018268737,
    "Kochen & Conway": 0.003427670255120685,
    "Schutte": 0.003562009359497873,
    "Kernaghan & Peres": 0.004353174034271855,
    "Kernaghan": 0.009760040515158398,
    "Cabello et al": 0.01421361344423254,
}
PUBLISHED_FLOORS = [0.0032, 0.0034, 0.0035, 0.0043, 0.0097, 0.0142]


def g_exact(r: Fraction, N: int, M: int, d: int) -> Fraction:
    """Independent exact-rational evaluation of the error-model left side."""
    t = 1 - r
    return M * (2 * r - 2 * r * r) + N * (1 - t**d - (d - 1) * t ** (d - 2) * r * r)


def crossing_oracle(N: int, M: int, d: int) -> float:
    lo, hi = Fraction(0), Fraction(1, 2)
    for _ in range(120):
        mid = (lo + hi) / 2
        if g_exact(mid, N, M, d) < 1:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def test_margin_ideal_case():
    m = inequality_margin(18, 9, 0, 0)
    assert m == 1 and m > 0


def test_margin_boundary_no_contradiction():
    m = inequality_margin(18, 9, Fraction(1, 18), 0)
    assert m == 0 and not m > 0
    assert isinstance(m, Fraction)


def test_margin_arithmetic():
    m = inequality_margin(96, 40, 0.005, 0.01)
    assert abs(m - 0.12) < 1e-12
    assert m > 0
    for M, N, message in ((-1, 40, "M must be >= 0, got -1"), (96, -1, "N must be >= 0, got -1")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            inequality_margin(M, N, 0.005, 0.01)


def test_delta_bound_at_zero_epsilon():
    b = delta_lower_bound(9, 18, 0)
    assert b == Fraction(1, 18) and isinstance(b, Fraction)
    assert b != 0


def test_delta_bound_vacuous():
    assert delta_lower_bound(9, 18, Fraction(1, 9)) == 0
    assert delta_lower_bound(9, 18, 0.5) == 0


def test_delta_bound_arithmetic():
    b = delta_lower_bound(40, 96, 0.01)
    assert abs(b - 0.00625) < 1e-15
    assert delta_lower_bound(40, 96, Fraction("0.01")) == Fraction(1, 160)


def test_delta_bound_requires_connections():
    with pytest.raises(ValueError):
        delta_lower_bound(9, 0, 0)


def test_delta_bound_monotone_in_epsilon():
    values = [delta_lower_bound(9, 18, e) for e in np.linspace(0, 0.2, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_delta_analytic_values():
    assert delta_analytic(0) == 0
    assert delta_analytic(0.5) == 0.5
    assert abs(delta_analytic(0.1) - 0.18) < 1e-15
    assert delta_analytic(0.0142) == pytest.approx(0.02799672, abs=1e-12)


def test_epsilon_analytic_values():
    assert epsilon_analytic(0, 3) == 0
    assert epsilon_analytic(0, 8) == 0
    assert abs(epsilon_analytic(0.1, 3) - 0.253) < 1e-15


def test_rate_domain_checks():
    with pytest.raises(ValueError):
        delta_analytic(1.5)
    with pytest.raises(ValueError):
        epsilon_analytic(-0.1, 3)
    with pytest.raises(ValueError, match="dimension must be >= 3, got 2"):
        epsilon_analytic(0.1, 2)


def test_lhs_spot_values():
    assert independent_error_lhs(0, 9, 18, 4) == 0
    assert independent_error_lhs(0.0142, 9, 18, 4) == pytest.approx(
        0.9990643522071737, abs=1e-9
    )
    assert independent_error_lhs(0.0143, 9, 18, 4) == pytest.approx(
        1.0059363432482353, abs=1e-9
    )
    assert independent_error_lhs(0.0142, 9, 18, 4) < 1 < independent_error_lhs(
        0.0143, 9, 18, 4
    )


def test_lhs_is_identity_of_parts():
    rng = np.random.default_rng(5)
    for _ in range(500):
        r = float(rng.uniform(0, 1))
        d = int(rng.integers(3, 11))
        N = int(rng.integers(1, 100))
        M = int(rng.integers(1, 100))
        lhs = independent_error_lhs(r, N, M, d)
        assert lhs == M * delta_analytic(r) + N * epsilon_analytic(r, d)


def test_lhs_matches_exact_rational_evaluation():
    for row in TABLE_ROWS:
        for num in range(0, 50, 7):
            r = Fraction(num, 1000)
            exact = g_exact(r, row.N, row.M, row.d)
            assert independent_error_lhs(float(r), row.N, row.M, row.d) == pytest.approx(
                float(exact), abs=1e-12
            )


# --- critical rate ---------------------------------------------------------------


def assert_adjacent_bracket(rate, N, M, d):
    # two adjacent floats with exact signs, and r the nearer of the two
    lo, hi = rate.bracket_low, rate.bracket_high
    assert hi == math.nextafter(lo, 1)
    assert g_exact(Fraction(lo), N, M, d) < 1 <= g_exact(Fraction(hi), N, M, d)
    midpoint_below = g_exact((Fraction(lo) + Fraction(hi)) / 2, N, M, d) < 1
    assert rate.r == (hi if midpoint_below else lo)


def test_critical_rate_matches_frozen_oracle():
    for row in TABLE_ROWS:
        rate = critical_rate(row.N, row.M, row.d)
        assert rate.r == FROZEN_CROSSINGS[row.name], row.name
        assert_adjacent_bracket(rate, row.N, row.M, row.d)


def test_critical_rate_is_the_nearest_float_for_any_counts():
    rng = random.Random(48)
    for _ in range(60):
        N, M, d = rng.randint(1, 10**30), rng.randint(1, 10**30), rng.randint(3, 16)
        rate = critical_rate(N, M, d)
        assert_adjacent_bracket(rate, N, M, d)
        assert rate.iterations <= 62


def test_critical_rate_finds_a_tiny_root():
    # a root far below any fixed tolerance: about 1/(N*d)
    N = 10**23 - 1
    rate = critical_rate(N, 1, 3)
    assert rate.r == 3.3333333333333334e-24
    assert_adjacent_bracket(rate, N, 1, 3)


@pytest.mark.parametrize("N, M", [(10**400, 1), (1, 10**400), (10**4299, 10**4299)])
def test_critical_rate_refuses_a_root_below_every_float(N, M):
    with pytest.raises(OverflowError, match="^critical rate is too small for a float$"):
        critical_rate(N, M, 128)


def test_floor4_is_the_exact_truncation(catalog_sets):
    # floor4 = f/10^4 with g(f/10^4) < 1 <= g((f+1)/10^4): the published
    # floor is the last 4-decimal rate below the root
    params = [(row.N, row.M, row.d) for row in TABLE_ROWS]
    for ks in catalog_sets:
        stats = kb.build_stats(ks)
        params.append((stats.N, stats.M, ks.dimension))
    for N, M, d in params:
        floor4 = critical_rate(N, M, d).floor4
        f = round(floor4 * 10**4)
        assert floor4 == f / 10**4
        assert g_exact(Fraction(f, 10**4), N, M, d) < 1 <= g_exact(Fraction(f + 1, 10**4), N, M, d)


def test_crossing_oracle_rederivation():
    for row in TABLE_ROWS:
        assert crossing_oracle(row.N, row.M, row.d) == pytest.approx(
            FROZEN_CROSSINGS[row.name], abs=1e-15
        )


def test_critical_rate_published_floors():
    floors = [critical_rate(row.N, row.M, row.d).floor4 for row in TABLE_ROWS]
    assert floors == PUBLISHED_FLOORS


def test_critical_rate_bracket_stability():
    for row in TABLE_ROWS:
        r = critical_rate(row.N, row.M, row.d).r
        assert independent_error_lhs(r - 1e-9, row.N, row.M, row.d) < 1
        assert independent_error_lhs(r + 1e-9, row.N, row.M, row.d) > 1


def test_lhs_strictly_increasing_near_origin():
    for row in TABLE_ROWS:
        rs = np.linspace(0, 0.05, 501)
        vals = [independent_error_lhs(float(r), row.N, row.M, row.d) for r in rs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_lhs_is_strictly_increasing_by_the_lemma(catalog_sets):
    # delta' = 2 - 4r > 0 on [0, 1/2); epsilon' = t^(d-3) * Q with Q a
    # positive definite quadratic form in (t, r), so every root is unique
    # and two exact signs prove each floor
    rng = random.Random(30)
    for d in range(3, kb.MAX_DIMENSION + 1):
        assert 4 * (d - 1) ** 2 - 4 * d * (d - 1) * (d - 2) == 4 * (d - 1) * (3 * d - 1 - d * d) < 0
        for _ in range(3):
            r = Fraction(rng.randint(1, 10**6 - 1), 2 * 10**6)
            t = 1 - r
            Q = d * t * t - 2 * (d - 1) * r * t + (d - 1) * (d - 2) * r * r
            slope = d * t ** (d - 1) - 2 * (d - 1) * r * t ** (d - 2)
            slope += (d - 1) * (d - 2) * r * r * t ** (d - 3)  # epsilon'(r), term by term
            assert Q > 0 and t ** (d - 3) * Q == slope
    params = [(row.N, row.M, row.d) for row in TABLE_ROWS]
    for ks in catalog_sets:
        stats = kb.build_stats(ks)
        params.append((stats.N, stats.M, ks.dimension))
    for N, M, d in params:
        assert g_exact(Fraction(1, 2), N, M, d) >= 1


def test_smaller_sets_tolerate_more_noise():
    # table rows are ordered largest set first; r* must increase down the rows
    rates = [critical_rate(row.N, row.M, row.d).r for row in TABLE_ROWS]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_critical_rate_preconditions():
    with pytest.raises(ValueError):
        critical_rate(0, 18, 4)
    with pytest.raises(ValueError):
        critical_rate(9, 0, 4)
    with pytest.raises(ValueError, match="dimension must be >= 3, got 2"):
        critical_rate(9, 18, 2)


COUNT_CALLS = {
    "critical_rate N": (lambda x: critical_rate(x, 18, 4), "N", 1),
    "critical_rate M": (lambda x: critical_rate(9, x, 4), "M", 1),
    "inequality_margin M": (lambda x: inequality_margin(x, 9, 0, 0), "M", 0),
    "inequality_margin N": (lambda x: inequality_margin(18, x, 0, 0), "N", 0),
    "delta_lower_bound N": (lambda x: delta_lower_bound(x, 18, 0), "N", 0),
    "delta_lower_bound M": (lambda x: delta_lower_bound(9, x, 0), "M", 1),
}


@pytest.mark.parametrize("call, name, least", COUNT_CALLS.values(), ids=list(COUNT_CALLS))
def test_counts_follow_the_one_integer_rule(call, name, least):
    # each count is checked by check_integer: a bool or a number that only
    # equals an integer is refused by name, and a numpy integer is one
    for value in (True, 9.5, Fraction(3, 2)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
            call(value)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be >= {least}, got {least - 1}')}$"):
        call(least - 1)
    assert call(np.int64(9)) == call(9)


@pytest.mark.parametrize("N, M", [(1, 1), (9, 18), (1, 10**300), (10**300, 1), (10**300, 10**300)])
def test_bisection_bracket_always_holds_the_crossing(N, M):
    # critical_rate bisects the floats in [0, 1/2] without checking that g
    # crosses 1 there: g(1/2) = M/2 + N(1 - d/2^d) >= 1/2 + 5/8 for every
    # N, M >= 1 and d >= 3
    half = Fraction(1, 2)
    for d in range(3, 65):
        assert g_exact(half, N, M, d) == M * half + N * (1 - Fraction(d, 2**d))
        assert independent_error_lhs(0.5, N, M, d) >= 9 / 8, d


def test_margin_sign_agrees_with_lhs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        r = float(rng.uniform(0, 0.2))
        d = int(rng.integers(3, 9))
        N = int(rng.integers(1, 60))
        M = int(rng.integers(1, 120))
        g = independent_error_lhs(r, N, M, d)
        m = inequality_margin(M, N, delta_analytic(r), epsilon_analytic(r, d))
        assert (m > 0) == (g < 1)


# --- table -----------------------------------------------------------------------


def test_table_report_default_rows(capsys):
    assert main(["table", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["r_floor4"] for row in rows] == PUBLISHED_FLOORS
    assert rows[0]["n"] == "57 (33)"
    assert rows[5]["n"] == 18
    assert set(rows[0]) == {"name", "d", "n", "N", "M", "r_critical", "r_floor4"}


def test_table_rows_from_catalog_stats(catalog_sets):
    by_name = {
        "cabello18": 0.0142,
        "kernaghan20": 0.0097,
        "kernaghan-peres36": 0.0043,
    }
    for ks in catalog_sets:
        st = kb.build_stats(ks)
        assert critical_rate(st.N, st.M, ks.dimension).floor4 == by_name[ks.name]


def test_format_table_layout(capsys):
    assert main(["table"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "set                   d         n    N    M   r",
        "-----------------------------------------------",
        "Peres                 3   57 (33)   40   96   0.0032",
        "Kochen & Conway       3   51 (31)   37   91   0.0034",
        "Schutte               3   49 (33)   36   87   0.0035",
        "Kernaghan & Peres     8        36   11   72   0.0043",
        "Kernaghan             4        20   11   30   0.0097",
        "Cabello et al         4        18    9   18   0.0142",
    ]
