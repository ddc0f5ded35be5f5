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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence, Union

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


@dataclass(frozen=True)
class ExactScalar:
    """A number a + b*sqrt(k) with rational a, b and fixed square-free k >= 1.

    k = 1 degenerates to the rationals; in that case the surd part must be
    zero.  Ring elements only combine with elements of the same ring.
    """

    rational: Fraction
    surd: Fraction
    radicand: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "rational", Fraction(self.rational))
        object.__setattr__(self, "surd", Fraction(self.surd))
        check_radicand(self.radicand)
        if self.radicand == 1 and self.surd != 0:
            raise ValueError("surd part must be zero when the radicand is 1")

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


def _ray_key(components: Sequence[ExactScalar], k: int) -> tuple[int, ...]:
    """Canonical integer key of the ray through a nonzero vector over Q(sqrt(k)).

    The key lists A_0, B_0, A_1, B_1, ... for components A_i + B_i*sqrt(k):
    the vector cleared of denominators, multiplied by the conjugate a - b*sqrt(k)
    of its first nonzero component a + b*sqrt(k) (which turns that component
    into the nonzero integer a^2 - k*b^2), divided by the gcd of all 2d
    integers, and signed so that the first nonzero entry is positive.  Two
    vectors on the same ray differ by a rational factor after the conjugate
    step, so they share one primitive, positively signed key.
    """
    scale = math.lcm(*(x.denominator for c in components for x in (c.rational, c.surd)))
    pairs = [
        (c.rational.numerator * (scale // c.rational.denominator),
         c.surd.numerator * (scale // c.surd.denominator))
        for c in components
    ]
    a, b = next(p for p in pairs if p != (0, 0))
    key = [t for x, y in pairs for t in (x * a - k * y * b, y * a - x * b)]
    g = math.gcd(*key)
    if a * a < k * b * b:  # the first entry a^2 - k*b^2 is negative: 1 + sqrt 2 has norm -1
        g = -g
    return tuple(t // g for t in key)


@dataclass(frozen=True)
class RayVector:
    """A named vector; comparisons are projective (see :func:`same_ray`).

    ``key`` is the canonical integer ray key (see :func:`_ray_key`), computed
    once at construction and excluded from equality.
    """

    id: str
    components: tuple[ExactScalar, ...]
    key: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError(f"vector {self.id!r} has no components")
        radicands = {c.radicand for c in self.components}
        if len(radicands) != 1:
            raise RingMismatchError(f"vector {self.id!r} mixes ring radicands {sorted(radicands)}")
        if all(c.is_zero() for c in self.components):
            raise ValueError(f"vector {self.id!r} is the zero vector")
        object.__setattr__(self, "key", _ray_key(self.components, self.radicand))

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def radicand(self) -> int:
        return self.components[0].radicand


@dataclass(frozen=True)
class Context:
    """An ordered tuple of d distinct vector ids measured together.

    Orthogonality is a set-level property (it needs the vectors) and is
    checked by construction-time validation and by
    :func:`ksbound.coloring.validate_orthogonality`.
    """

    vector_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.vector_ids)) != len(self.vector_ids):
            raise ValueError(f"context repeats a vector id: {self.vector_ids}")


@dataclass(frozen=True)
class KsSet:
    """A named set of rays and orthogonal d-tuples, with optional M override.

    The constructor enforces referential structure (declared ids, component
    counts, one ring).  The mathematical invariants -- pairwise orthogonality
    inside each context, no two declared vectors on the same ray, no repeated
    context -- are checked by :func:`ksbound.coloring.validate_orthogonality`,
    so that a structurally sound but mathematically broken set can still be
    built and *reported on* rather than just rejected.
    """

    name: str
    dimension: int
    ring_radicand: int
    vectors: tuple[RayVector, ...]
    contexts: tuple[Context, ...]
    m_override: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dimension < 3:
            raise ValueError(f"dimension must be >= 3, got {self.dimension}")
        check_radicand(self.ring_radicand)
        if self.m_override is not None and self.m_override < 0:
            raise ValueError("m_override must be non-negative")
        seen: set[str] = set()
        for v in self.vectors:
            if v.id in seen:
                raise ValueError(f"duplicate vector id {v.id!r}")
            seen.add(v.id)
            if v.dimension != self.dimension:
                raise DimensionMismatchError(
                    f"vector {v.id!r} has {v.dimension} components, expected {self.dimension}"
                )
            if v.radicand != self.ring_radicand:
                raise RingMismatchError(
                    f"vector {v.id!r} lives in ring sqrt({v.radicand}), "
                    f"set declares sqrt({self.ring_radicand})"
                )
        for ctx in self.contexts:
            if len(ctx.vector_ids) != self.dimension:
                raise ValueError(
                    f"context {ctx.vector_ids} has {len(ctx.vector_ids)} ids, "
                    f"expected {self.dimension}"
                )
            for vid in ctx.vector_ids:
                if vid not in seen:
                    raise ValueError(f"context references undeclared vector id {vid!r}")

    def vector(self, vid: str) -> RayVector:
        return self._by_id[vid]

    @property
    def _by_id(self) -> Mapping[str, RayVector]:
        cached = getattr(self, "_by_id_cache", None)
        if cached is None:
            cached = {v.id: v for v in self.vectors}
            object.__setattr__(self, "_by_id_cache", cached)
        return cached


@dataclass(frozen=True)
class SetStats:
    """Derived statistics of a KsSet.

    n and N are the vector and context counts.  ``connections`` lists every
    unordered pair of contexts sharing a vector, one entry per shared vector,
    so a vector appearing in k contexts contributes C(k, 2) entries.  M equals
    the length of that list unless the set carries an explicit override (used
    when a published connection count follows a different convention); the
    connection list itself always stays the all-pairs default.
    """

    n: int
    N: int
    M: int
    multiplicities: Mapping[str, int]
    connections: tuple[tuple[str, tuple[int, int]], ...]

    @property
    def m_all_pairs(self) -> int:
        return len(self.connections)


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
    """True iff the inner product of u and v is exactly zero.

    Each key is its vector times a nonzero field element, so the keys'
    product sum(A*C + k*B*D) + sum(A*D + B*C)*sqrt(k) vanishes exactly when
    the vectors' does; both parts are integers.
    """
    _check_pair(u, v)
    a, b, c, d = u.key[::2], u.key[1::2], v.key[::2], v.key[1::2]
    return (
        sum(map(mul, a, c)) + u.radicand * sum(map(mul, b, d)) == 0
        and sum(map(mul, a, d)) + sum(map(mul, b, c)) == 0
    )


def build_stats(ks: KsSet) -> SetStats:
    """Derive n, N, M, per-vector multiplicities, and the connection list.

    The default M counts all unordered context pairs per shared vector,
    Sum_v C(k_v, 2); an m_override on the set replaces the reported M but the
    connection list keeps the default pairs.
    """
    mult: dict[str, int] = {v.id: 0 for v in ks.vectors}
    appears: dict[str, list[int]] = {v.id: [] for v in ks.vectors}
    for ci, ctx in enumerate(ks.contexts):
        for vid in ctx.vector_ids:
            mult[vid] += 1
            appears[vid].append(ci)
    connections: list[tuple[str, tuple[int, int]]] = []
    for v in ks.vectors:
        for a, b in combinations(appears[v.id], 2):
            connections.append((v.id, (a, b)))
    m = ks.m_override if ks.m_override is not None else len(connections)
    return SetStats(
        n=len(ks.vectors),
        N=len(ks.contexts),
        M=m,
        multiplicities=mult,
        connections=tuple(connections),
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
