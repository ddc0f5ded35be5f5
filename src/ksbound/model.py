"""Exact model of rays, contexts, and Kochen-Specker sets.

Everything here is exact: vector components live in the quadratic ring
Q(sqrt(k)) for a per-set square-free radicand k, so orthogonality and
ray-equality tests never touch floating point.  Each :class:`RayVector`
carries a canonical integer *ray key*, computed once: two vectors are the
same ray exactly when their keys are equal, and orthogonal exactly when the
integer dot product of their keys vanishes (see :func:`same_ray` and
:func:`orthogonal`).  The derived statistics (n, N, M) parametrize every
bound in :mod:`ksbound.bounds`.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Mapping, NamedTuple, NoReturn, Optional, Sequence, Union

Rational = Union[int, Fraction]


class RingMismatchError(ValueError):
    """Two scalars or vectors from different quadratic rings were combined."""


class DimensionMismatchError(ValueError):
    """Two vectors of different dimension were combined."""


#: Largest radicand k accepted for a ring Q(sqrt(k)).  Square-freeness is
#: decided by trial division up to sqrt(k), at most about 31 600 steps here.
MAX_RADICAND = 10**9


@lru_cache(maxsize=128)
def is_square_free(k: int) -> bool:
    if k < 1:
        return False
    p = 2
    while p * p <= k:
        if k % (p * p) == 0:
            return False
        p += 1
    return True


def check_radicand(k: int) -> None:
    """Raise ValueError unless k is a square-free integer in [1, MAX_RADICAND]."""
    if k > MAX_RADICAND:
        raise ValueError(f"radicand {k} exceeds the limit {MAX_RADICAND}")
    if not is_square_free(k):
        raise ValueError(f"radicand {k} is not a square-free positive integer")


class ExactScalar(namedtuple("ExactScalar", "rational surd radicand")):
    """A number a + b*sqrt(k) with rational a, b and fixed square-free k >= 1.

    k = 1 degenerates to the rationals; in that case the surd part must be
    zero.  Ring elements only combine with elements of the same ring.
    """

    __slots__ = ()

    def __new__(cls, rational: Rational, surd: Rational, radicand: int = 1) -> ExactScalar:
        # wrap only what is not already a Fraction (a subclass is converted)
        if type(rational) is not Fraction:
            rational = Fraction(rational)
        if type(surd) is not Fraction:
            surd = Fraction(surd)
        check_radicand(radicand)
        if radicand == 1 and surd != 0:
            raise ValueError("surd part must be zero when the radicand is 1")
        return super().__new__(cls, rational, surd, radicand)

    @classmethod
    def of(cls, rational: Rational, surd: Rational = 0, radicand: int = 1) -> "ExactScalar":
        return cls(Fraction(rational), Fraction(surd), radicand)

    def _check(self, other: "ExactScalar") -> None:
        if self.radicand != other.radicand:
            raise RingMismatchError(
                f"cannot combine ring sqrt({self.radicand}) with sqrt({other.radicand})"
            )

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        self._check(other)
        return ExactScalar(self.rational + other.rational, self.surd + other.surd, self.radicand)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        self._check(other)
        return ExactScalar(self.rational - other.rational, self.surd - other.surd, self.radicand)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        # (a + b sqrt k)(c + e sqrt k) = (ac + bek) + (ae + bc) sqrt k
        self._check(other)
        a, b, c, e = self.rational, self.surd, other.rational, other.surd
        return ExactScalar(a * c + b * e * self.radicand, a * e + b * c, self.radicand)

    def __rmul__(self, other: object) -> NoReturn:  # a tuple's would repeat it
        other_type = type(other).__name__
        raise TypeError(f"unsupported operand type(s) for *: {other_type!r} and 'ExactScalar'")

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.rational, -self.surd, self.radicand)

    def is_zero(self) -> bool:
        return self.rational == 0 and self.surd == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __float__(self) -> float:
        return float(self.rational) + float(self.surd) * self.radicand ** 0.5

    def __repr__(self) -> str:
        if self.surd == 0:
            return f"ExactScalar({self.rational})"
        return f"ExactScalar({self.rational} + {self.surd}*sqrt({self.radicand}))"


def zero(radicand: int = 1) -> ExactScalar:
    return ExactScalar(Fraction(0), Fraction(0), radicand)


def _ray_key(components: Sequence[ExactScalar], k: int) -> Optional[tuple[int, ...]]:
    """Canonical integer key of the ray through a vector over Q(sqrt(k)), or
    None for the zero vector.

    The key lists A_0, B_0, A_1, B_1, ... for components A_i + B_i*sqrt(k):
    the vector cleared of denominators, multiplied by the conjugate a - b*sqrt(k)
    of its first nonzero component a + b*sqrt(k) (which turns that component
    into the nonzero integer a^2 - k*b^2), divided by the gcd of all 2d
    integers, and signed so that the first nonzero entry is positive.  Two
    vectors on the same ray differ by a rational factor after the conjugate
    step, so they share one primitive, positively signed key.
    """
    ratios = [(c.rational.as_integer_ratio(), c.surd.as_integer_ratio()) for c in components]
    scale = math.lcm(*(q for pair in ratios for _, q in pair))
    pairs = [(p * (scale // q), r * (scale // s)) for (p, q), (r, s) in ratios]
    first = next((p for p in pairs if p != (0, 0)), None)
    if first is None:
        return None
    a, b = first
    key = [t for x, y in pairs for t in (x * a - k * y * b, y * a - x * b)]
    g = math.gcd(*key)
    if a * a < k * b * b:  # the first entry a^2 - k*b^2 is negative: 1 + sqrt 2 has norm -1
        g = -g
    return tuple(t // g for t in key)


class RayVector(namedtuple("RayVector", "id components key")):
    """A named vector; comparisons are projective (see :func:`same_ray`).

    ``key`` is the canonical integer ray key (see :func:`_ray_key`), computed
    once at construction from the components, so it never changes equality;
    the zero vector, which has no key, is refused.
    ``_replace`` and ``_make`` skip the checks and the key: call the class.
    """

    __slots__ = ()

    def __new__(cls, id: str, components: tuple[ExactScalar, ...]) -> RayVector:
        if not components:
            raise ValueError(f"vector {id!r} has no components")
        radicands = {c.radicand for c in components}
        if len(radicands) != 1:
            raise RingMismatchError(f"vector {id!r} mixes ring radicands {sorted(radicands)}")
        key = _ray_key(components, radicands.pop())
        if key is None:
            raise ValueError(f"vector {id!r} is the zero vector")
        return super().__new__(cls, id, components, key)

    def __getnewargs__(self) -> tuple[str, tuple[ExactScalar, ...]]:  # copy and pickle
        return self.id, self.components

    def __repr__(self) -> str:  # the key is derived, so it is left out
        return f"RayVector(id={self.id!r}, components={self.components!r})"

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def radicand(self) -> int:
        return self.components[0].radicand


class Context(namedtuple("Context", "vector_ids")):
    """An ordered tuple of d distinct vector ids measured together.

    Orthogonality is a set-level property (it needs the vectors) and is
    checked by construction-time validation and by
    :func:`ksbound.coloring.validate_orthogonality`.
    """

    __slots__ = ()

    def __new__(cls, vector_ids: tuple[str, ...]) -> Context:
        if len(set(vector_ids)) != len(vector_ids):
            raise ValueError(f"context repeats a vector id: {vector_ids}")
        return super().__new__(cls, vector_ids)


class KsSet(namedtuple("KsSet", "name dimension ring_radicand vectors contexts m_override")):
    """A named set of rays and orthogonal d-tuples, with optional M override.

    The constructor enforces referential structure (declared ids, component
    counts, one ring).  The mathematical invariants -- pairwise orthogonality
    inside each context, no two declared vectors on the same ray, no repeated
    context -- are checked by :func:`ksbound.coloring.validate_orthogonality`,
    so that a structurally sound but mathematically broken set can still be
    built and *reported on* rather than just rejected.  ``_replace`` skips
    the constructor's checks.
    """

    def __new__(
        cls,
        name: str,
        dimension: int,
        ring_radicand: int,
        vectors: tuple[RayVector, ...],
        contexts: tuple[Context, ...],
        m_override: Optional[int] = None,
    ) -> KsSet:
        if dimension < 3:
            raise ValueError(f"dimension must be >= 3, got {dimension}")
        check_radicand(ring_radicand)
        if m_override is not None and m_override < 0:
            raise ValueError("m_override must be non-negative")
        seen: set[str] = set()
        for v in vectors:
            if v.id in seen:
                raise ValueError(f"duplicate vector id {v.id!r}")
            seen.add(v.id)
            if v.dimension != dimension:
                raise DimensionMismatchError(
                    f"vector {v.id!r} has {v.dimension} components, expected {dimension}"
                )
            if v.radicand != ring_radicand:
                raise RingMismatchError(
                    f"vector {v.id!r} lives in ring sqrt({v.radicand}), "
                    f"set declares sqrt({ring_radicand})"
                )
        for ctx in contexts:
            if len(ctx.vector_ids) != dimension:
                raise ValueError(
                    f"context {ctx.vector_ids} has {len(ctx.vector_ids)} ids, "
                    f"expected {dimension}"
                )
            for vid in ctx.vector_ids:
                if vid not in seen:
                    raise ValueError(f"context references undeclared vector id {vid!r}")
        return super().__new__(cls, name, dimension, ring_radicand, vectors, contexts, m_override)

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot set {name!r}: a KsSet is immutable")

    def vector(self, vid: str) -> RayVector:
        return self._by_id[vid]

    @cached_property  # kept in the instance dict, outside the tuple's fields
    def _by_id(self) -> Mapping[str, RayVector]:
        return {v.id: v for v in self.vectors}


class SetStats(NamedTuple):
    """Derived statistics of a KsSet.

    n and N are the vector and context counts, and ``multiplicities`` gives
    each vector's number k_v of contexts.  A connection is an unordered pair
    of contexts sharing a vector, one per shared vector, so ``m_all_pairs``
    is Sum_v C(k_v, 2).  M equals it unless the set carries an explicit
    override (used when a published connection count follows a different
    convention); ``m_all_pairs`` always stays the all-pairs count.
    """

    n: int
    N: int
    M: int
    multiplicities: Mapping[str, int]
    m_all_pairs: int


def _check_pair(u: RayVector, v: RayVector) -> None:
    if u.dimension != v.dimension:
        raise DimensionMismatchError(
            f"{u.id!r} has dimension {u.dimension}, {v.id!r} has {v.dimension}"
        )
    if u.radicand != v.radicand:
        raise RingMismatchError(
            f"{u.id!r} is over sqrt({u.radicand}), {v.id!r} over sqrt({v.radicand})"
        )


def inner_product(u: RayVector, v: RayVector) -> ExactScalar:
    """Exact real inner product (no conjugation; components are real)."""
    _check_pair(u, v)
    total = zero(u.radicand)
    for a, b in zip(u.components, v.components):
        total = total + a * b
    return total


def same_ray(u: RayVector, v: RayVector) -> bool:
    """True iff u = c*v for a nonzero scalar c of the ring's fraction field.

    Decided by equality of the canonical integer ray keys: each key is its
    vector times a nonzero field element, reduced to the one primitive,
    positively signed integer representative of the ray.
    """
    _check_pair(u, v)
    return u.key == v.key


def orthogonal(u: RayVector, v: RayVector) -> bool:
    """True iff the inner product of u and v is exactly zero (see
    :func:`_keys_orthogonal`)."""
    _check_pair(u, v)
    return _keys_orthogonal(u.key, v.key, u.radicand)


def _keys_orthogonal(x: tuple[int, ...], y: tuple[int, ...], k: int) -> bool:
    """True iff two vectors over Q(sqrt(k)) with ray keys x and y, of one
    dimension, are orthogonal.

    Each key is its vector times a nonzero field element, so the keys'
    product sum(A*C + k*B*D) + sum(A*D + B*C)*sqrt(k) vanishes exactly when
    the vectors' does; both parts are integers.  The caller vouches for the
    dimension and the ring, as ``orthogonal`` and the parser do.
    """
    a, b, c, d = x[::2], x[1::2], y[::2], y[1::2]
    return (
        sum(map(mul, a, c)) + k * sum(map(mul, b, d)) == 0
        and sum(map(mul, a, d)) + sum(map(mul, b, c)) == 0
    )


def build_stats(ks: KsSet) -> SetStats:
    """Derive n, N, M and the per-vector multiplicities.

    The default M counts all unordered context pairs per shared vector,
    Sum_v C(k_v, 2); an m_override on the set replaces the reported M but
    not ``m_all_pairs``.
    """
    mult: dict[str, int] = {v.id: 0 for v in ks.vectors}
    for ctx in ks.contexts:
        for vid in ctx.vector_ids:
            mult[vid] += 1
    m_all_pairs = sum(math.comb(k, 2) for k in mult.values())
    return SetStats(
        n=len(ks.vectors),
        N=len(ks.contexts),
        M=ks.m_override if ks.m_override is not None else m_all_pairs,
        multiplicities=mult,
        m_all_pairs=m_all_pairs,
    )


def make_set(
    name: str,
    dimension: int,
    vectors: Iterable[tuple[str, Sequence[Rational]]],
    contexts: Iterable[Sequence[str]],
    ring_radicand: int = 1,
    m_override: Optional[int] = None,
) -> KsSet:
    """Convenience constructor from plain rational components (no surds)."""
    vecs = tuple(
        RayVector(vid, tuple(ExactScalar.of(c, 0, ring_radicand) for c in comps))
        for vid, comps in vectors
    )
    ctxs = tuple(Context(tuple(ids)) for ids in contexts)
    return KsSet(name, dimension, ring_radicand, vecs, ctxs, m_override)
