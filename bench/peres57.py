"""Peres's 33-ray set in R^3, completed to 57 rays and 40 triads.

Construction (A. Peres, "Two simple proofs of the Kochen-Specker theorem",
J. Phys. A 24 (1991) L175):

1. Take every sign and permutation variant of (0,0,1), (0,1,1), (0,1,sqrt2)
   and (1,1,sqrt2), and identify v with -v.  That gives 3 + 6 + 12 + 12 = 33
   rays, all with components in Z[sqrt2].
2. Among them, 16 triples are mutually orthogonal.  Each becomes a context.
3. 24 orthogonal pairs lie in no such triple ("lone" pairs).  Each is
   completed to a triad by its cross product, which in dimension 3 is the
   unique ray orthogonal to both.  That adds 24 rays and 24 contexts.

The result has n = 57, N = 40 and an all-pairs connection count M = 96, the
published Peres row of the results table, with no override.  It is written
as a ``ksset 1`` document under ``field sqrt 2``; a component ``a:b`` means
a + b*sqrt(2).

Run ``python3 bench/peres57.py`` to print the document.
"""
from __future__ import annotations

from itertools import combinations, permutations, product
from math import gcd

# An element a + b*sqrt(2) of Z[sqrt2] is the integer pair (a, b).
Elem = tuple[int, int]
Ray = tuple[Elem, Elem, Elem]

EXPECTED = {"n": 57, "N": 40, "M": 96, "r_floor4": 0.0032, "d_min": 1}

_BASE = (((0, 0), (0, 0), (1, 0)),
         ((0, 0), (1, 0), (1, 0)),
         ((0, 0), (1, 0), (0, 1)),
         ((1, 0), (1, 0), (0, 1)))


def _mul(x: Elem, y: Elem) -> Elem:
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _sub(x: Elem, y: Elem) -> Elem:
    return (x[0] - y[0], x[1] - y[1])


def _sign(x: Elem) -> int:
    """Sign of a + b*sqrt(2), decided exactly by comparing a^2 with 2b^2."""
    a, b = x
    if a >= 0 and b >= 0:
        return int(a > 0 or b > 0)
    if a <= 0 and b <= 0:
        return -1
    big = a * a - 2 * b * b  # a and b have opposite signs here
    return (1 if big > 0 else -1) if a > 0 else (1 if big < 0 else -1)


def _dot(u: Ray, v: Ray) -> Elem:
    s = (0, 0)
    for x, y in zip(u, v):
        p = _mul(x, y)
        s = (s[0] + p[0], s[1] + p[1])
    return s


def _cross(u: Ray, v: Ray) -> Ray:
    return (_sub(_mul(u[1], v[2]), _mul(u[2], v[1])),
            _sub(_mul(u[2], v[0]), _mul(u[0], v[2])),
            _sub(_mul(u[0], v[1]), _mul(u[1], v[0])))


def _canonical(v: Ray) -> Ray:
    """Smallest representative: strip common integer and sqrt2 factors, then
    make the first nonzero component positive."""
    while True:
        g = 0
        for a, b in v:
            g = gcd(g, gcd(a, b))
        v = tuple((a // g, b // g) for a, b in v)
        if not all(a % 2 == 0 for a, _ in v):
            break
        v = tuple((b, a // 2) for a, b in v)  # divide by sqrt2
    lead = next(_sign(x) for x in v if x != (0, 0))
    return tuple((lead * a, lead * b) for a, b in v)


def _is_zero(x: Elem) -> bool:
    return x == (0, 0)


def peres_rays() -> list[Ray]:
    """The 33 rays, in a fixed order."""
    seen: list[Ray] = []
    for base in _BASE:
        for perm in sorted(set(permutations(base))):
            for signs in product((1, -1), repeat=3):
                ray = _canonical(tuple((s * a, s * b) for s, (a, b) in zip(signs, perm)))
                if ray not in seen:
                    seen.append(ray)
    return seen


def peres57() -> tuple[list[Ray], list[tuple[int, int, int]]]:
    """Rays and contexts (as index triples) of the completed set."""
    rays = peres_rays()
    orth = {(i, j) for i, j in combinations(range(len(rays)), 2)
            if _is_zero(_dot(rays[i], rays[j]))}
    triads = [t for t in combinations(range(len(rays)), 3)
              if {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])} <= orth]
    in_triad = {p for t in triads for p in combinations(t, 2)}
    contexts = list(triads)
    for i, j in sorted(orth - in_triad):
        rays.append(_canonical(_cross(rays[i], rays[j])))
        contexts.append((i, j, len(rays) - 1))
    return rays, contexts


def _component(x: Elem) -> str:
    return str(x[0]) if x[1] == 0 else f"{x[0]}:{x[1]}"


def peres57_document() -> str:
    """The completed set as a ``ksset 1`` document."""
    rays, contexts = peres57()
    name = lambda i: f"p{i + 1}" if i < 33 else f"c{i - 32}"  # noqa: E731
    lines = [
        "ksset 1",
        "# Peres (1991) 33 rays, lone orthogonal pairs completed by cross product",
        "name peres57",
        "dim 3",
        "field sqrt 2",
    ]
    lines += [f"vec {name(i)} " + " ".join(_component(x) for x in r) for i, r in enumerate(rays)]
    lines += ["ctx " + " ".join(name(i) for i in c) for c in contexts]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(peres57_document(), end="")
