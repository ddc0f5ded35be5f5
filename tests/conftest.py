import math
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np
import pytest

import ksbound as kb
from ksbound.model import incidence

BRUTE_FORCE_LIMIT = 25


def all_pairs_connections(ks):
    """Every connection of ``ks`` as (vector id, (a, b)) with contexts a < b:
    each unordered pair of contexts that share the vector, so a vector in k
    contexts gives C(k, 2) of them.  Vectors come in declaration order and
    each vector's pairs in lexicographic order.  This is the tests' reference
    for the all-pairs M and for the connection order of ``simulate_model``."""
    appears = {v.id: [] for v in ks.vectors}
    for ci, ctx in enumerate(ks.contexts):
        for vid in ctx.vector_ids:
            appears[vid].append(ci)
    return [(vid, pair) for vid, cis in appears.items() for pair in combinations(cis, 2)]


def connection_slots(ks):
    """The (left, right) slots of each connection in ``all_pairs_connections``
    order, where slot ci*d + p is position p of context ci."""
    d = ks.dimension
    at = [{vid: p for p, vid in enumerate(ctx.vector_ids)} for ctx in ks.contexts]
    return [(a * d + at[a][vid], b * d + at[b][vid]) for vid, (a, b) in all_pairs_connections(ks)]


class BruteForce(NamedTuple):
    """What ``brute_force_coloring`` found: ``nodes`` is the number of
    assignments enumerated, ``solutions`` how many of them are colorings."""

    satisfiable: bool
    assignment: Optional[dict]
    nodes: int
    solutions: int


def brute_force_coloring(ks):
    """The tests' oracle for ``find_coloring``: enumerate all 2^n 0/1
    assignments of the vectors (n <= 25), 2^20 at a time, and count those
    that give every context exactly one zero.  The assignment returned is
    the first such, bit i being vector i's value."""
    n = len(ks.vectors)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"set too large for 2^n enumeration (n={n} > {BRUTE_FORCE_LIMIT})")
    d = ks.dimension
    ctxs = incidence(ks).contexts
    masks = np.array([sum(1 << vi for vi in ctx) for ctx in ctxs], dtype=np.uint64)
    want = np.uint64(d - 1)
    total = 1 << n
    chunk = 1 << 20
    solutions = 0
    first = None
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        xs = np.arange(lo, hi, dtype=np.uint64)
        ok = np.ones(hi - lo, dtype=bool)
        for mask in masks:
            ok &= np.bitwise_count(xs & mask) == want
        hit = int(np.count_nonzero(ok))
        solutions += hit
        if hit and first is None:
            first = lo + int(np.argmax(ok))
    if first is None:
        return BruteForce(False, None, total, 0)
    assignment = {v.id: (first >> i) & 1 for i, v in enumerate(ks.vectors)}
    return BruteForce(True, assignment, total, solutions)


# The tests' field oracle: exact arithmetic in Q(sqrt k) over ExactScalar
# parts, which carries none of its own.  The ray-key tests decide ray
# equality by 2x2 minors and orthogonality by ``dot`` with it.


def _ring(x, y):
    if x.radicand != y.radicand:
        raise kb.RingMismatchError(f"cannot combine ring sqrt({x.radicand}) with sqrt({y.radicand})")
    return x.radicand


def add(x, y):
    return kb.ExactScalar(x.rational + y.rational, x.surd + y.surd, _ring(x, y))


def neg(x):
    return kb.ExactScalar(-x.rational, -x.surd, x.radicand)


def sub(x, y):
    return add(x, neg(y))


def mul(x, y):
    # (a + b sqrt k)(c + e sqrt k) = (ac + bek) + (ae + bc) sqrt k
    k = _ring(x, y)
    a, b, c, e = x.rational, x.surd, y.rational, y.surd
    return kb.ExactScalar(a * c + b * e * k, a * e + b * c, k)


def inverse(x):
    """1/x for a nonzero x: its conjugate over its rational norm a^2 - k*b^2."""
    norm = x.rational ** 2 - x.radicand * x.surd ** 2
    return kb.ExactScalar(x.rational / norm, -x.surd / norm, x.radicand)


def dot(u, v):
    """The sum of ``mul`` over the components of two vectors of one dimension."""
    total = kb.ExactScalar(0, 0, u.radicand)
    for a, b in zip(u.components, v.components):
        total = add(total, mul(a, b))
    return total


def fan_document(n_triads):
    """A valid colorable set: triads (a, b, 0), (-b, a, 0), z all sharing z."""
    pairs = [(a, s - a) for s in range(2, 100) for a in range(1, s) if math.gcd(a, s - a) == 1]
    lines = ["ksset 1", "name fan", "dim 3", "vec z 0 0 1"]
    for i, (a, b) in enumerate(pairs[:n_triads]):
        lines += [f"vec p{i} {a} {b} 0", f"vec q{i} {-b} {a} 0", f"ctx p{i} q{i} z"]
    return "\n".join(lines) + "\n"


#: 5 times the left multiplication by the unit quaternion (1, 2, 2, 4)/5: it
#: keeps orthogonality, and up to three copies of cabello18 and kernaghan20
#: mapped 0, 1 and 2 times through it share no ray
QUATERNION = ((1, -2, -2, -4), (2, 1, -4, 2), (2, 4, 1, -2), (4, -2, 2, 1))


def rotated(v, times):
    """``v`` mapped ``times`` times through ``QUATERNION``, in its own ring."""
    comps = v.components
    for _ in range(times):
        comps = tuple(
            kb.ExactScalar(sum(m * c.rational for m, c in zip(row, comps)),
                           sum(m * c.surd for m, c in zip(row, comps)), v.radicand)
            for row in QUATERNION
        )
    return comps


def disjoint_union(name, *parts):
    """One set holding disjoint copies of ``parts``, ids prefixed by copy.

    The copies are sets of dimension 4, and copy i is mapped i times through
    ``QUATERNION``, which keeps each context orthogonal: a set may not
    declare one ray twice, and the two copies of ``cabello18x2`` would.  The
    incidence, and so every search, is that of the copies side by side.
    """
    ids = [{v.id: f"{tag}_{v.id}" for v in ks.vectors} for tag, ks in zip("abc", parts)]
    return kb.KsSet(
        name=name,
        dimension=parts[0].dimension,
        ring_radicand=parts[0].ring_radicand,
        vectors=tuple(
            kb.RayVector(names[v.id], rotated(v, i))
            for i, (names, ks) in enumerate(zip(ids, parts)) for v in ks.vectors
        ),
        contexts=tuple(
            kb.Context(tuple(names[vid] for vid in ctx.vector_ids))
            for names, ks in zip(ids, parts)
            for ctx in ks.contexts
        ),
    )


#: Each set's critical rate r*, ``critical_rate(N, M, d).r`` written out as the
#: float it is, by set name: the pinned simulations run at these rates, so a
#: change to ``critical_rate`` moves only the pinned ``critical-r`` and ``table``
#: outputs.  A set without contexts has no r*.
R_STAR = {
    "cabello18": 0.014213613444098883,
    "kernaghan20": 0.009760040514720458,
    "kernaghan-peres36": 0.0043531740343496494,
    "peres57": 0.003218127202217147,
    "surds": 0.10786273027906645,
    "two-triads": 0.16056850468748962,
}


#: A small valid set over Q(sqrt 2): ``a:b`` is a + b*sqrt(2).
SURD_SET = """\
ksset 1
name surds
dim 3
field sqrt 2
vec a 1 0:1 0
vec b 0:-1 1 0
vec c 0 0 1
vec d 1 0:-1 0
vec e 0:1 1 0
vec g 0:1 0:1 0
vec h 1 -1 0:1
vec k 0:1/2 0:-1/2 -1
ctx a b c
ctx d e c
ctx g h k
"""


@pytest.fixture(scope="session")
def cabello18():
    return kb.load_catalog("cabello18")


@pytest.fixture(scope="session")
def kernaghan20():
    return kb.load_catalog("kernaghan20")


@pytest.fixture(scope="session")
def kp36():
    return kb.load_catalog("kernaghan-peres36")


@pytest.fixture(scope="session")
def catalog_sets(cabello18, kernaghan20, kp36):
    return (cabello18, kernaghan20, kp36)


@pytest.fixture
def triad():
    return kb.make_set(
        "triad",
        3,
        [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1))],
        [("a", "b", "c")],
    )


@pytest.fixture
def loose_ray():
    # a triad and a ray in no context: no slots, multiplicity 0
    return kb.make_set(
        "loose-ray",
        3,
        [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1)), ("x", (1, 1, 0))],
        [("a", "b", "c")],
    )


@pytest.fixture
def two_triads():
    # two triads sharing the vector a
    return kb.make_set(
        "two-triads",
        3,
        [
            ("a", (1, 0, 0)),
            ("b", (0, 1, 0)),
            ("c", (0, 0, 1)),
            ("d", (0, 1, 1)),
            ("e", (0, 1, -1)),
        ],
        [("a", "b", "c"), ("a", "d", "e")],
    )


@pytest.fixture(scope="session")
def fan50():
    # 50 triads (a, b, 0), (-b, a, 0), z all sharing z: 1225 connections on
    # 150 slots, so connections outnumber slots
    pairs = [(a, s - a) for s in range(2, 20) for a in range(1, s) if math.gcd(a, s - a) == 1]
    vectors, contexts = [("z", (0, 0, 1))], []
    for i, (a, b) in enumerate(pairs[:50]):
        vectors += [(f"p{i}", (a, b, 0)), (f"q{i}", (-b, a, 0))]
        contexts.append((f"p{i}", f"q{i}", "z"))
    return kb.make_set("fan50", 3, vectors, contexts)


@pytest.fixture(scope="session")
def cabello18x2(cabello18):
    return disjoint_union("cabello18x2", cabello18, cabello18)
