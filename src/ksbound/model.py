"""Exact model of rays, contexts, and Kochen-Specker sets.

Everything here is exact: vector components are checked values in the
quadratic ring Q(sqrt(k)) for a per-set square-free radicand k, with no
arithmetic of their own.  Each :class:`RayVector` carries a canonical integer
*ray key*, computed once, and the keys are the one exact arithmetic: two
vectors are the same ray exactly when their keys are equal, and orthogonal
exactly when both integer parts of their keys' product vanish (see
:func:`same_ray` and :func:`_keys_orthogonal`), so neither test touches
floating point.  The derived statistics (n, N, M) parametrize every bound in
:mod:`ksbound.bounds`.
"""
from __future__ import annotations

import math
import re
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from operator import index, mul
from typing import Iterable, Mapping, NamedTuple, NoReturn, Optional, Sequence, Union

Rational = Union[int, Fraction]


class RingMismatchError(ValueError):
    """Two vectors from different quadratic rings were combined."""


class DimensionMismatchError(ValueError):
    """Two vectors of different dimension were combined."""


#: Largest radicand k accepted for a ring Q(sqrt(k)).  Square-freeness is
#: decided by trial division up to sqrt(k), at most about 31 600 steps here.
MAX_RADICAND = 10**9

#: Largest dimension d accepted.  Each step of ``critical_rate`` computes
#: q**d for a power of two q of up to 2**1074, so its cost grows with d: at
#: this cap, a call on counts of 4300 digits takes about 0.3 s (2 cores,
#: Python 3.11).
MAX_DIMENSION = 128


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


def check_integer(x: object, name: str, least: Optional[int] = None) -> int:
    """Return x as a Python int; raise ValueError unless it is an integer
    (what ``operator.index`` accepts) and not a bool, and, given ``least``,
    at least ``least``.  The library's one integer rule: the file format
    writes ``3.0`` and ``True`` back as words that do not parse as the
    number, and a seed of ``True`` would run seed 1's stream.  ``name`` is
    what the message calls the value, such as a command-line flag."""
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if least is not None and x < least:
        raise ValueError(f"{name} must be >= {least}, got {x}")
    return index(x)


def check_radicand(k: int) -> int:
    """Return k as a Python int; raise ValueError unless it is a square-free
    integer in [1, MAX_RADICAND]."""
    k = check_integer(k, "radicand")
    if k > MAX_RADICAND:
        raise ValueError(f"radicand {k} exceeds the limit {MAX_RADICAND}")
    if not is_square_free(k):
        raise ValueError(f"radicand {k} is not a square-free positive integer")
    return k


def check_dimension(d: int, name: str = "dimension") -> int:
    """Return d as a Python int; raise ValueError unless it is an integer >=
    3, the least dimension with a KS set, and at most MAX_DIMENSION.
    ``name`` is what the message calls the value, such as a command-line
    flag."""
    d = check_integer(d, name, 3)
    if d > MAX_DIMENSION:
        raise ValueError(f"{name} must be <= {MAX_DIMENSION}, got {d}")
    return d


#: the characters of an identifier, the only set name or vector id a
#: document holds: a space would end the word, a ``#`` start a comment, and
#: ``123`` would read back as ``"123"``
_IDENT_CHARS = "[A-Za-z0-9_.-]+"
_IDENT = re.compile(_IDENT_CHARS)


def check_identifier(x: object, what: str) -> None:
    """Raise ValueError, naming ``what``, unless x is an identifier: a str of
    one or more of ``A-Z a-z 0-9 _ . -``."""
    if not (isinstance(x, str) and _IDENT.fullmatch(x)):
        raise ValueError(f"malformed {what} {x!r}")


def _exact(x: Rational) -> Fraction:
    """``Fraction(x)``, refusing a float (numpy's float64 is one): its binary
    value is not the decimal it was written as, so 0.1 + 0.2 - 0.3 != 0.  A
    ``Fraction`` itself, such as each part the parser reads, is kept as it is."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"an exact part must be an int or Fraction, not {type(x).__name__} {x!r}")
    return Fraction(x)


class ExactScalar(namedtuple("ExactScalar", "rational surd radicand")):
    """A number a + b*sqrt(k) with rational a, b and fixed square-free k >= 1.

    k = 1 degenerates to the rationals; in that case the surd part must be
    zero.  The parts are ints or Fractions; a float part raises TypeError.
    A checked value with no arithmetic and no order: ``+``, ``-``, ``*``,
    negation, ``float()``, ``<``, ``<=``, ``>`` and ``>=`` raise TypeError.  It
    is false exactly when it is zero.
    """

    __slots__ = ()

    def __new__(cls, rational: Rational, surd: Rational = 0, radicand: int = 1) -> ExactScalar:
        rational, surd = _exact(rational), _exact(surd)
        check_radicand(radicand)
        if radicand == 1 and surd != 0:
            raise ValueError("surd part must be zero when the radicand is 1")
        return super().__new__(cls, rational, surd, radicand)

    # as a tuple, + would join the parts, * repeat them and < compare them
    # (1 + sqrt2 < 2 would be true), so each raises instead
    def _refuse(self, other: object) -> NoReturn:
        raise TypeError(
            "an ExactScalar has no arithmetic and no order: compare rays with same_ray or orthogonal"
        )

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = _refuse

    def __bool__(self) -> bool:  # a tuple of three parts would always be true
        return self.rational != 0 or self.surd != 0

    def __repr__(self) -> str:
        if self.surd == 0:
            return f"ExactScalar({self.rational})"
        return f"ExactScalar({self.rational} + {self.surd}*sqrt({self.radicand}))"


def _ray_key(components: Sequence[ExactScalar], k: int) -> Optional[tuple[int, ...]]:
    """Canonical integer key of the ray through a vector over Q(sqrt(k)), or
    None for the zero vector.

    The key lists A_0, B_0, A_1, B_1, ... for components A_i + B_i*sqrt(k):
    the vector cleared of denominators, multiplied by the conjugate a - b*sqrt(k)
    of its first nonzero component a + b*sqrt(k) (which turns that component
    into the nonzero integer a^2 - k*b^2), divided by the gcd of all 2d
    integers, and signed so that the first nonzero entry is positive.  Two
    vectors on the same ray differ by a rational factor after the conjugate
    step, so they share one primitive, positively signed key.  When b = 0 the
    conjugate is the integer a, so the key is the cleared vector divided by
    its gcd and signed by a.

    One walk over the components reads the parts; the lcm is taken over the
    denominators other than 1 only, so an integer vector needs no clearing,
    and a key that is primitive and positive as built is returned as it is.
    """
    nums, dens = [], []  # dens: (position in nums, denominator) of each part that is not an integer
    for c in components:
        p, q = c.rational.as_integer_ratio()
        r, s = c.surd.as_integer_ratio()
        if q != 1:
            dens.append((len(nums), q))
        if s != 1:
            dens.append((len(nums) + 1, s))
        nums += p, r
    if dens:
        scale = math.lcm(*[q for _, q in dens])
        nums = [n * scale for n in nums]
        for i, q in dens:
            nums[i] //= q
    for i in range(0, len(nums), 2):
        a, b = nums[i], nums[i + 1]
        if a or b:
            break
    else:
        return None
    key = nums
    if b:
        pairs = iter(nums)
        key = [t for x, y in zip(pairs, pairs) for t in (x * a - k * y * b, y * a - x * b)]
    # key[i] is the first nonzero entry, a or a^2 - k*b^2: 1 + sqrt 2 has norm -1
    g = -math.gcd(*key) if key[i] < 0 else math.gcd(*key)
    return tuple(key) if g == 1 else tuple([t // g for t in key])


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
        k = components[0].radicand
        for c in components:
            if c.radicand != k:
                radicands = sorted({c.radicand for c in components})
                raise RingMismatchError(f"vector {id!r} mixes ring radicands {radicands}")
        key = _ray_key(components, k)
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

    Orthogonality is a set-level property (it needs the vectors):
    :class:`SetCheck` checks it for :class:`KsSet` and the parser.
    """

    __slots__ = ()

    def __new__(cls, vector_ids: tuple[str, ...]) -> Context:
        if len(set(vector_ids)) != len(vector_ids):
            repeated = next(v for i, v in enumerate(vector_ids) if v in vector_ids[:i])
            raise ValueError(f"context repeats vector id {repeated!r}")
        return super().__new__(cls, vector_ids)


class Incidence(NamedTuple):
    """Which rays sit in which contexts, by position: built from a set's ids
    by :func:`incidence` on each call, for every engine and the tests'
    oracles.

    ``contexts`` gives each context's rays by position; ``slots`` gives
    each ray's slots in context order, empty for a ray in no context.  Slot
    c*d + p is position p of context c.  This is the one slot numbering:
    the simulate layout, ``min_defect``'s witness and the slot assignments
    ``assignment_defect`` scores all use it.  A ray's multiplicity is its
    slot count, and each pair of its slots is one connection.
    """

    contexts: tuple[tuple[int, ...], ...]
    slots: tuple[tuple[int, ...], ...]


class SetCheck:
    """The checks of every set invariant, in one order and on one state:
    :class:`KsSet` and the parser both feed one, so a set built in code and
    a document are refused alike, with one message each.

    Built from the dimension and radicand, which it checks.  Then, in order,
    :meth:`declare` and :meth:`vector` for each vector, :meth:`context` for
    each context and :meth:`m_override` last.  Each method raises
    ``ValueError`` at the first refusal, so a parser can attach its line,
    and records what it accepts: the declared vectors by id, their ids by
    ray key, the contexts, and where each context was declared.
    """

    def __init__(self, dimension: int, radicand: int) -> None:
        self.dimension, self.radicand = check_dimension(dimension), check_radicand(radicand)
        self.vectors: dict[str, RayVector] = {}
        self.rays: dict[tuple[int, ...], str] = {}
        self.contexts: list[Context] = []
        self.seen: dict[frozenset[str], str] = {}  # each context's ids, and where it was declared

    def declare(self, vid: str, components: Sequence[object]) -> None:
        """Raise ValueError unless a vector's id is an identifier, then
        DimensionMismatchError unless it has ``dimension`` components, then
        ValueError if the id is already declared."""
        check_identifier(vid, "vector id")
        if len(components) != self.dimension:
            raise DimensionMismatchError(
                f"vector {vid!r} has {len(components)} components, expected {self.dimension}"
            )
        if vid in self.vectors:
            raise ValueError(f"duplicate vector id {vid!r}")

    def vector(self, vec: RayVector) -> None:
        """Raise RingMismatchError unless ``vec`` lives in the set's ring,
        then ValueError if it lies on a declared ray (one lookup of its ray
        key); record it."""
        if vec.radicand != self.radicand:
            raise RingMismatchError(
                f"vector {vec.id!r} lives in ring sqrt({vec.radicand}), "
                f"set declares sqrt({self.radicand})"
            )
        earlier = self.rays.get(vec.key)
        if earlier is not None:
            raise ValueError(f"duplicate ray: {vec.id!r} is a scalar multiple of {earlier!r}")
        self.vectors[vec.id] = vec
        self.rays[vec.key] = vec.id

    def context(self, ids: Sequence[str], where: str) -> None:
        """Raise ValueError unless a context names ``dimension`` declared
        ids, none twice (:class:`Context`), not the ids of an earlier
        context, and pairwise orthogonal vectors, decided on their ray keys;
        record it, declared at ``where``."""
        if len(ids) != self.dimension:
            raise ValueError(f"context has {len(ids)} ids, expected {self.dimension}")
        for vid in ids:
            if vid not in self.vectors:
                raise ValueError(f"context references undeclared vector id {vid!r}")
        ctx = Context(tuple(ids))
        key = frozenset(ids)
        if key in self.seen:
            raise ValueError(f"duplicate context (same vectors as {self.seen[key]})")
        for a, b in combinations(ids, 2):
            if not _keys_orthogonal(self.vectors[a].key, self.vectors[b].key, self.radicand):
                raise ValueError(f"context not orthogonal ({a}·{b} != 0)")
        self.contexts.append(ctx)
        self.seen[key] = where

    def m_override(self, m: object, name: str) -> None:
        """Raise ValueError unless m is None (no override) or an integer of
        at least M_cut = (N*d - n1)/2, where n1 counts the rays in exactly
        one of the N contexts.  Called last: it counts every context's ids.

        The KS inequality ``M*delta + N*epsilon >= 1`` holds on an
        uncolorable set when each connection of a ray in k contexts weighs
        1/(k-1), for a total of M_cut, or any M above it; a lower M claims a
        contradiction that a non-contextual model can refute.  Compared as
        ``2*m >= N*d - n1``, so a half-integer M_cut needs no float.
        """
        if m is None:
            return
        check_integer(m, name, 0)
        counts = Counter(chain.from_iterable(self.seen))  # a context's ids are distinct
        twice_cut = len(self.contexts) * self.dimension - list(counts.values()).count(1)
        if 2 * m < twice_cut:
            raise ValueError(
                f"{name} must be >= M_cut = (N*d - n1)/2 = {Fraction(twice_cut, 2)}, got {m}"
            )


class KsSet(namedtuple("KsSet", "name dimension ring_radicand vectors contexts m_override")):
    """A named set of rays and orthogonal d-tuples, with optional M override.

    The constructor refuses, with ``ValueError``, any set that no document
    can hold: it checks the name (:func:`check_identifier`), then feeds one
    :class:`SetCheck`, the checker the parser feeds line by line, with the
    dimension and radicand, each vector, each context and ``m_override``.
    The dimension, the radicand and ``m_override`` must be integers and not
    bools (:func:`check_integer`).  Each context's ids are checked again
    through :class:`Context`, so a context made by ``Context._make`` is held
    to its rule too.  So every set writes out as a document that parses
    back.  ``_replace``
    and ``_make`` skip the checks: the parser builds its checked set with
    ``_make``.  A plain value like the other records: the fields are its
    whole state, and what derives from them, such as its
    :func:`incidence`, is built on each call.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        dimension: int,
        ring_radicand: int,
        vectors: tuple[RayVector, ...],
        contexts: tuple[Context, ...],
        m_override: Optional[int] = None,
    ) -> KsSet:
        check_identifier(name, "set name")
        check = SetCheck(dimension, ring_radicand)
        for v in vectors:
            check.declare(v.id, v.components)
            check.vector(v)
        for c, ctx in enumerate(contexts):
            check.context(ctx.vector_ids, f"context {c}")
        check.m_override(m_override, "m_override")
        return super().__new__(cls, name, dimension, ring_radicand, vectors, contexts, m_override)


def incidence(ks: KsSet) -> Incidence:
    """The set's :class:`Incidence`, by one walk over its contexts' ids."""
    index = {v.id: i for i, v in enumerate(ks.vectors)}
    contexts = tuple(tuple(map(index.__getitem__, ctx.vector_ids)) for ctx in ks.contexts)
    slots: list[list[int]] = [[] for _ in ks.vectors]
    for s, vi in enumerate(chain.from_iterable(contexts)):  # c*d + p: each context holds d
        slots[vi].append(s)
    return Incidence(contexts, tuple(map(tuple, slots)))


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
    """Exact real inner product (no conjugation; components are real), from
    the parts: sum(a*c + k*b*e) + sum(a*e + b*c)*sqrt(k) over u's a + b*sqrt(k)
    and v's c + e*sqrt(k)."""
    _check_pair(u, v)
    k, pairs = u.radicand, tuple(zip(u.components, v.components))
    rational = sum(a.rational * c.rational + k * a.surd * c.surd for a, c in pairs)
    return ExactScalar(rational, sum(a.rational * c.surd + a.surd * c.rational for a, c in pairs), k)


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
    the vectors' does; both parts are integers, summed in one walk over the
    keys' (A, B) and (C, D) pairs.  Over Q (k = 1) every B and D is 0, so
    the test is the plain dot product.  Callers vouch for the
    dimension and ring: :func:`orthogonal` and :meth:`SetCheck.context`.
    """
    if k == 1:
        return sum(map(mul, x, y)) == 0
    rational = surd = 0
    for i in range(0, len(x), 2):
        a, b, c, d = x[i], x[i + 1], y[i], y[i + 1]
        rational += a * c + k * b * d
        surd += a * d + b * c
    return rational == 0 and surd == 0


def build_stats(ks: KsSet) -> SetStats:
    """Derive n, N, M and the per-vector multiplicities, each ray's slot
    count in the set's :class:`Incidence`.

    The default M counts all unordered context pairs per shared vector,
    Sum_v C(k_v, 2); an m_override on the set replaces the reported M but
    not ``m_all_pairs``.
    """
    mult = {v.id: len(at) for v, at in zip(ks.vectors, incidence(ks).slots)}
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
        RayVector(vid, tuple(ExactScalar(c, 0, ring_radicand) for c in comps))
        for vid, comps in vectors
    )
    ctxs = tuple(Context(tuple(ids)) for ids in contexts)
    return KsSet(name, dimension, ring_radicand, vecs, ctxs, m_override)
