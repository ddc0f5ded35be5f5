"""ExactScalar's checks, and the tests' field oracle for Q(sqrt(k)) (``conftest``)."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import add, inverse, mul, neg, sub
from ksbound import MAX_RADICAND, ExactScalar, RingMismatchError, is_square_free


def test_square_free_predicate():
    assert [k for k in range(1, 31) if is_square_free(k)] == [
        1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30
    ]
    assert not is_square_free(0)
    assert not is_square_free(-2)


def test_construction_coerces_to_fraction():
    x = ExactScalar(1, 2, 5)
    assert x.rational == Fraction(1) and isinstance(x.rational, Fraction)
    assert x.surd == Fraction(2) and isinstance(x.surd, Fraction)
    assert x.radicand == 5


def test_float_parts_are_refused():
    # 0.5 is exact in binary, yet any float part is refused, numpy's too
    for part in (0.5, np.float64(0.5), np.float32(0.5)):
        with pytest.raises(TypeError):
            ExactScalar(part)
        with pytest.raises(TypeError):
            ExactScalar(1, part, 2)


def test_non_square_free_radicand_rejected():
    for k in (4, 8, 9, 12, 0, -1):
        with pytest.raises(ValueError):
            ExactScalar(1, 0, k)


def test_radicand_above_the_limit_rejected():
    for k in (MAX_RADICAND + 7, 10**18 + 3):  # both prime; refused for size
        with pytest.raises(ValueError, match="exceeds the limit"):
            ExactScalar(1, 0, k)
    ExactScalar(1, 1, 999999937)  # the largest prime below the limit


def test_rational_ring_requires_zero_surd():
    with pytest.raises(ValueError, match="surd part must be zero"):
        ExactScalar(1, 1, 1)
    # surd 0 is fine in any ring
    ExactScalar(Fraction(3, 7), 0, 1)
    ExactScalar(Fraction(3, 7), 0, 2)


def test_scalars_have_no_arithmetic():
    # a scalar is a checked value: as a tuple, x + y would join the parts and
    # 2 * x repeat them, so every such operation raises instead
    x, y = ExactScalar(1, 1, 5), ExactScalar(Fraction(1, 2), -1, 5)
    for op in (lambda: x + y, lambda: x * y, lambda: x * 2, lambda: 2 * x,
               lambda: x - y, lambda: -x, lambda: float(x)):
        with pytest.raises(TypeError):
            got = op()
            assert not isinstance(got, tuple), got
    assert not bool(ExactScalar(0, 0, 5))
    assert bool(ExactScalar(0, 1, 5))


def test_scalars_have_no_order():
    # as a tuple, 1 + sqrt2 < 2 would compare the parts (1 < 2), not the
    # numbers, and -1 < -sqrt2 likewise; so every ordering raises, either side
    x, y = ExactScalar(1, 1, 2), ExactScalar(2, 0, 2)
    for op in (lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y,
               lambda: ExactScalar(-1, 0, 2) < ExactScalar(0, -1, 2),
               lambda: x < 2, lambda: 2 < x, lambda: (1, 1, 2) <= x,
               lambda: sorted([y, x])):
        with pytest.raises(TypeError):
            op()
    assert x == ExactScalar(1, 1, 2) and x != y


def test_conjugate_product():
    # (1 + sqrt5)(1 - sqrt5) = 1 - 5 = -4
    x = ExactScalar(1, 1, 5)
    y = ExactScalar(1, -1, 5)
    p = mul(x, y)
    assert p.rational == -4 and p.surd == 0


def test_add_sub_neg():
    x = ExactScalar(Fraction(1, 2), Fraction(1, 3), 2)
    y = ExactScalar(Fraction(1, 2), Fraction(-1, 3), 2)
    assert add(x, y).rational == 1 and add(x, y).surd == 0
    assert sub(x, y).surd == Fraction(2, 3)
    assert neg(x).rational == Fraction(-1, 2)


def test_ring_mismatch_raises():
    x = ExactScalar(1, 1, 2)
    y = ExactScalar(1, 1, 3)
    with pytest.raises(RingMismatchError):
        add(x, y)
    with pytest.raises(RingMismatchError):
        mul(x, y)
    with pytest.raises(RingMismatchError):
        sub(x, y)
    # radicand 1 vs radicand 2 are distinct rings even for pure rationals
    with pytest.raises(RingMismatchError):
        add(ExactScalar(1), ExactScalar(1, 0, 2))


def test_zero_and_bool():
    z = ExactScalar(0, 0, 3)
    assert not z
    assert bool(ExactScalar(0, 1, 3))
    assert not sub(ExactScalar(2, 0, 3), ExactScalar(2, 0, 3))


def test_repr_is_readable():
    assert "sqrt(2)" in repr(ExactScalar(0, 1, 2))
    assert repr(ExactScalar(Fraction(1, 2))) == "ExactScalar(1/2)"


small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@given(small_fractions, small_fractions, small_fractions,
       small_fractions, small_fractions, small_fractions)
def test_ring_axioms(a, b, c, d, e, f):
    """Commutativity, associativity, distributivity and inverses of the oracle in Q(sqrt 7)."""
    x = ExactScalar(a, b, 7)
    y = ExactScalar(c, d, 7)
    w = ExactScalar(e, f, 7)
    assert add(x, y) == add(y, x)
    assert mul(x, y) == mul(y, x)
    assert add(add(x, y), w) == add(x, add(y, w))
    assert mul(mul(x, y), w) == mul(x, mul(y, w))
    assert mul(x, add(y, w)) == add(mul(x, y), mul(x, w))
    assert add(sub(x, y), y) == x
    assert not x or mul(x, inverse(x)) == ExactScalar(1, 0, 7)
