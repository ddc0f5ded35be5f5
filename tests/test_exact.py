"""Ring arithmetic of ExactScalar (a + b*sqrt(k) over the rationals)."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ksbound import MAX_RADICAND, ExactScalar, RingMismatchError, is_square_free, zero


def test_square_free_predicate():
    assert [k for k in range(1, 31) if is_square_free(k)] == [
        1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30
    ]
    assert not is_square_free(0)
    assert not is_square_free(-2)


def test_construction_coerces_to_fraction():
    x = ExactScalar.of(1, 2, 5)
    assert x.rational == Fraction(1) and isinstance(x.rational, Fraction)
    assert x.surd == Fraction(2) and isinstance(x.surd, Fraction)
    assert x.radicand == 5


def test_non_square_free_radicand_rejected():
    for k in (4, 8, 9, 12, 0, -1):
        with pytest.raises(ValueError):
            ExactScalar.of(1, 0, k)


def test_radicand_above_the_limit_rejected():
    for k in (MAX_RADICAND + 7, 10**18 + 3):  # both prime; refused for size
        with pytest.raises(ValueError, match="exceeds the limit"):
            ExactScalar.of(1, 0, k)
    ExactScalar.of(1, 1, 999999937)  # the largest prime below the limit


def test_rational_ring_requires_zero_surd():
    with pytest.raises(ValueError, match="surd part must be zero"):
        ExactScalar.of(1, 1, 1)
    # surd 0 is fine in any ring
    ExactScalar.of(Fraction(3, 7), 0, 1)
    ExactScalar.of(Fraction(3, 7), 0, 2)


def test_conjugate_product():
    # (1 + sqrt5)(1 - sqrt5) = 1 - 5 = -4
    x = ExactScalar.of(1, 1, 5)
    y = ExactScalar.of(1, -1, 5)
    p = x * y
    assert p.rational == -4 and p.surd == 0


def test_add_sub_neg():
    x = ExactScalar.of(Fraction(1, 2), Fraction(1, 3), 2)
    y = ExactScalar.of(Fraction(1, 2), Fraction(-1, 3), 2)
    assert (x + y).rational == 1 and (x + y).surd == 0
    assert (x - y).surd == Fraction(2, 3)
    assert (-x).rational == Fraction(-1, 2)


def test_ring_mismatch_raises():
    x = ExactScalar.of(1, 1, 2)
    y = ExactScalar.of(1, 1, 3)
    with pytest.raises(RingMismatchError):
        x + y
    with pytest.raises(RingMismatchError):
        x * y
    # radicand 1 vs radicand 2 are distinct rings even for pure rationals
    with pytest.raises(RingMismatchError):
        ExactScalar.of(1) + ExactScalar.of(1, 0, 2)


def test_zero_and_bool():
    z = zero(3)
    assert z.is_zero() and not z
    assert bool(ExactScalar.of(0, 1, 3))
    assert (ExactScalar.of(2, 0, 3) - ExactScalar.of(2, 0, 3)).is_zero()


def test_float_value():
    assert float(ExactScalar.of(1, 1, 2)) == pytest.approx(1 + 2**0.5)
    assert float(ExactScalar.of(Fraction(-3, 4))) == -0.75


def test_repr_is_readable():
    assert "sqrt(2)" in repr(ExactScalar.of(0, 1, 2))
    assert repr(ExactScalar.of(Fraction(1, 2))) == "ExactScalar(1/2)"


small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@given(small_fractions, small_fractions, small_fractions,
       small_fractions, small_fractions, small_fractions)
def test_ring_axioms(a, b, c, d, e, f):
    """Commutativity, associativity, distributivity in Q(sqrt 7)."""
    x = ExactScalar(a, b, 7)
    y = ExactScalar(c, d, 7)
    w = ExactScalar(e, f, 7)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + w == x + (y + w)
    assert (x * y) * w == x * (y * w)
    assert x * (y + w) == x * y + x * w
    assert (x - y) + y == x


@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_float_is_homomorphic_approximately(a, b, c, d):
    x = ExactScalar(a, b, 3)
    y = ExactScalar(c, d, 3)
    assert float(x * y) == pytest.approx(float(x) * float(y), abs=1e-9)
    assert float(x + y) == pytest.approx(float(x) + float(y), abs=1e-9)
