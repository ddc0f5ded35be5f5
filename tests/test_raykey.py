"""Canonical integer ray keys against the exact definitions they replace.

The references below are the checks the parser and ``validate_orthogonality``
made with ``ExactScalar`` arithmetic before rays carried keys: 2x2 minors for
ray equality and the ``Fraction`` inner product for orthogonality.
"""
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import given, settings, strategies as st

import ksbound as kb
from ksbound import (
    Context,
    ExactScalar,
    KsSet,
    ParseError,
    RayVector,
    Violation,
    inner_product,
    orthogonal,
    parse_document,
    same_ray,
    validate_orthogonality,
)
from ksbound.format import _parse_component


def minors_same_ray(u, v):
    """u and v are proportional iff every 2x2 minor u_i v_j - u_j v_i vanishes."""
    a, b = u.components, v.components
    return all((a[i] * b[j] - a[j] * b[i]).is_zero() for i, j in combinations(range(len(a)), 2))


def reference_outcome(text):
    """(message, line) of the first error the reference checks find, or None if none.

    Grammar errors are the parser's own: lines before its first error are read
    as the directives it accepted, and only ray equality and context
    orthogonality are decided again, by minors and inner products.
    """
    stop, grammar = None, None
    try:
        parse_document(text)
    except ParseError as exc:
        stop = exc.line
        if not exc.message.startswith(("duplicate ray", "context not orthogonal")):
            grammar = (exc.message, exc.line)
    radicand, vecs = 1, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if stop is not None and lineno >= stop and (grammar or lineno > stop):
            return grammar
        tokens = raw.split("#", 1)[0].split()
        if tokens[:2] == ["field", "sqrt"]:
            radicand = int(tokens[2])
        elif tokens[:1] == ["vec"]:
            vec = RayVector(tokens[1], tuple(_parse_component(c, radicand, lineno) for c in tokens[2:]))
            for known in vecs.values():
                if minors_same_ray(known, vec):
                    return f"duplicate ray: {vec.id!r} is a scalar multiple of {known.id!r}", lineno
            vecs[vec.id] = vec
        elif tokens[:1] == ["ctx"]:
            for a, b in combinations(tokens[1:], 2):
                if not inner_product(vecs[a], vecs[b]).is_zero():
                    return f"context not orthogonal ({a}·{b} != 0)", lineno
    return None


def reference_violations(ks):
    """validate_orthogonality as it was: all pairs by minors, then each context."""
    out, vs, seen = [], ks.vectors, {}
    for u, v in combinations(vs, 2):
        if minors_same_ray(u, v):
            out.append(Violation("duplicate-ray", f"{u.id!r} and {v.id!r} are the same ray", None, (u.id, v.id)))
    for ci, ctx in enumerate(ks.contexts):
        key = frozenset(ctx.vector_ids)
        if key in seen:
            out.append(Violation("duplicate-context", f"context {ci} repeats context {seen[key]}",
                                 ci, ctx.vector_ids))
        else:
            seen[key] = ci
        for a, b in combinations(ctx.vector_ids, 2):
            if not inner_product(ks.vector(a), ks.vector(b)).is_zero():
                out.append(Violation("non-orthogonal", f"context {ci}: {a}·{b} != 0", ci, (a, b)))
    return tuple(out)


# --- the key against the minor definition ------------------------------------------


def scalar(r, s=0, k=2):
    return ExactScalar.of(r, s, k)


def scaled(c, u, vid="v"):
    return RayVector(vid, tuple(c * x for x in u.components))


def inverse(x):
    norm = x.rational ** 2 - x.radicand * x.surd ** 2
    return ExactScalar(x.rational / norm, -x.surd / norm, x.radicand)


small = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 7)))


@st.composite
def related_pair(draw):
    """Two vectors over Q(sqrt k) that are often on one ray or orthogonal."""
    k = draw(st.sampled_from([1, 2, 3, 5, 6, 7]))
    d = draw(st.integers(3, 5))

    def element():
        return ExactScalar(draw(small), draw(small) if k > 1 else 0, k)

    def vector(vid):
        comps = tuple(element() for _ in range(d))
        if all(c.is_zero() for c in comps):
            comps = (ExactScalar.of(1, 0, k),) + comps[1:]
        return RayVector(vid, comps)

    u = vector("u")
    how = draw(st.sampled_from(["multiple", "orthogonal", "nudged", "random"]))
    if how == "random":
        return u, vector("v")
    if how == "orthogonal":
        w = vector("w")
        c = inner_product(w, u) * inverse(inner_product(u, u))
        comps = tuple(x - c * y for x, y in zip(w.components, u.components))
        return u, (RayVector("v", comps) if any(comps) else w)
    c = element()
    if c.is_zero():
        c = ExactScalar.of(-1, 0, k)
    v = scaled(c, u)
    if how == "nudged":
        i = draw(st.integers(0, d - 1))
        comps = list(v.components)
        comps[i] = comps[i] + element()
        if any(comps):
            v = RayVector("v", tuple(comps))
    return u, v


@settings(max_examples=300, deadline=None)
@given(related_pair())
def test_key_decides_what_minors_and_inner_products_decide(pair):
    u, v = pair
    assert same_ray(u, v) == (u.key == v.key) == minors_same_ray(u, v)
    assert orthogonal(u, v) == inner_product(u, v).is_zero()


def test_key_survives_units_of_either_norm_sign():
    # 1+sqrt2 has norm -1 and flips every sign of the conjugate-scaled vector;
    # -3+2*sqrt2 has norm +1 but is negative; sqrt2 has norm -2.
    u = RayVector("u", (scalar(0), scalar(1, 1), scalar(0, 1), scalar(Fraction(-2, 3))))
    for c in (scalar(1, 1), scalar(-3, 2), scalar(0, 1), scalar(-1), scalar(Fraction(5, 2), -7)):
        v = scaled(c, u)
        assert v.key == u.key and same_ray(u, v) and minors_same_ray(u, v)
    assert u.key[:2] == (0, 0) and u.key[2] > 0 and u.key[3] == 0  # a positive integer
    w = RayVector("w", (scalar(0), scalar(1, 1), scalar(0, 1), scalar(Fraction(2, 3))))
    assert not same_ray(u, w) and not minors_same_ray(u, w)


def test_key_is_primitive_and_integer():
    u = RayVector("u", (scalar(Fraction(3, 4), Fraction(1, 6)), scalar(0, Fraction(-5, 2)), scalar(2)))
    assert all(isinstance(t, int) for t in u.key)
    assert len(u.key) == 2 * u.dimension
    assert gcd(*u.key) == 1 and u.key[0] > 0


# --- the parser and validate_orthogonality against the old checks ---------------


SQRT2_SET = """\
ksset 1
name sqrt2-demo
dim 3
field sqrt 2
vec a 1 0 0
vec b 0 1 0
vec c 0 0 1
vec d 0 1 0:1
vec e 0 0:1 -1
vec f 1 0:1 0
vec g 0:1 -1 0
vec h 1 1 0:1
vec i 1 1 0:-1
vec j 1 -1 0
ctx a b c
ctx a d e
ctx c f g
ctx h i j
"""

JUNK = ("0", "1", "-1", "2", "1/2", "0:1", "0:-1", "1:1", "-1:1", "2:2", "x9", "1/0", "")


def mutant(lines, rng):
    """The document with one token of one directive replaced, deleted or duplicated."""
    i = rng.choice([n for n, ln in enumerate(lines) if ln.split("#", 1)[0].split()])
    tokens = lines[i].split("#", 1)[0].split()
    j = rng.randrange(len(tokens) > 1, len(tokens))  # the directive itself only if alone
    action = rng.choice(("swap", "swap", "negate", "negate", "junk", "delete", "duplicate"))
    if action == "negate":  # often lands on another declared ray
        tokens[j] = ":".join(p[1:] if p[:1] == "-" else "-" + p for p in tokens[j].split(":"))
    elif action == "swap":  # a token from another line of the same directive
        same = [t for ln in lines for t in [ln.split("#", 1)[0].split()] if t[:1] == tokens[:1]]
        same = [t[1:] for t in same if len(t) > 1]
        tokens[j] = rng.choice(rng.choice(same)) if same else rng.choice(JUNK)
    elif action == "junk":
        tokens[j] = rng.choice(JUNK)
    elif action == "delete":
        del tokens[j]
    else:
        tokens.insert(j, tokens[j])
    out = list(lines)
    out[i] = " ".join(t for t in tokens if t)
    return "\n".join(out) + "\n"


#: Mutants per document; the reference's minors make kp36 mutants the costliest to check.
MUTANTS = {"cabello18": 40, "kernaghan20": 30, "kernaghan-peres36": 6, "sqrt2-demo": 300}


def outcome(text):
    try:
        parse_document(text)
    except ParseError as exc:
        return exc.message, exc.line
    return None


def test_parser_matches_the_minor_reference_on_mutants():
    docs = {name: kb.catalog_text(name) for name in kb.list_catalog()}
    docs["sqrt2-demo"] = SQRT2_SET
    counts = {"duplicate ray": 0, "context not orthogonal": 0, "accepted": 0}
    for name, text in docs.items():
        rng = random.Random(f"raykey-{name}")
        lines = text.splitlines()
        for _ in range(MUTANTS[name]):
            doc = mutant(lines, rng)
            got = outcome(doc)
            assert got == reference_outcome(doc), doc
            kind = "accepted" if got is None else got[0].split(":")[0].split(" (")[0]
            if kind in counts:
                counts[kind] += 1
    assert all(n >= 10 for n in counts.values()), counts


def surd_set(name, vectors, contexts):
    vecs = tuple(RayVector(vid, tuple(scalar(*c) for c in comps)) for vid, comps in vectors)
    return KsSet(name, 3, 2, vecs, tuple(Context(tuple(c)) for c in contexts))


HAND_SETS = [
    # duplicate rays, surd multiples among them, in interleaved groups
    surd_set("dups", [
        ("a", [(1, 0), (0, 1), (0, 0)]),
        ("b", [(0, 0), (0, 0), (1, 0)]),
        ("a2", [(0, 1), (2, 0), (0, 0)]),            # sqrt2 * a
        ("b2", [(0, 0), (0, 0), (-3, 0)]),           # -3 * b
        ("a3", [(1, 1), (2, 1), (0, 0)]),            # (1 + sqrt2) * a
        ("c", [(0, 1), (-1, 0), (0, 0)]),
        ("c2", [(-2, 0), (0, 1), (0, 0)]),           # -sqrt2 * c
        ("b3", [(0, 0), (0, 0), (-3, 2)]),           # (-3 + 2 sqrt2) * b
    ], [("a", "b", "c")]),
    # several non-orthogonal pairs in several contexts
    surd_set("skew", [
        ("a", [(1, 0), (0, 0), (0, 0)]),
        ("b", [(0, 0), (1, 0), (0, 1)]),
        ("c", [(1, 0), (1, 0), (0, 0)]),
        ("d", [(0, 0), (0, 1), (-1, 0)]),
        ("e", [(0, 1), (1, 0), (1, 0)]),
    ], [("a", "b", "c"), ("a", "d", "e"), ("c", "d", "e"), ("a", "b", "d")]),
    # repeated contexts, one of them also not orthogonal
    surd_set("repeats", [
        ("a", [(1, 0), (0, 0), (0, 0)]),
        ("b", [(0, 0), (1, 0), (0, 0)]),
        ("c", [(0, 0), (0, 0), (1, 0)]),
        ("d", [(0, 0), (1, 0), (0, 1)]),
    ], [("a", "b", "c"), ("c", "b", "a"), ("a", "b", "d"), ("b", "a", "c"), ("d", "a", "b")]),
]


def test_validate_matches_the_minor_reference_on_hand_built_sets(catalog_sets):
    for ks in HAND_SETS:
        got = validate_orthogonality(ks).violations
        assert got == reference_violations(ks), ks.name
        assert got
    kinds = {v.kind for ks in HAND_SETS for v in validate_orthogonality(ks).violations}
    assert kinds == {"duplicate-ray", "duplicate-context", "non-orthogonal"}
    assert [v.vector_ids for v in validate_orthogonality(HAND_SETS[0]).violations[:4]] == [
        ("a", "a2"), ("a", "a3"), ("b", "b2"), ("b", "b3"),
    ]
    for ks in catalog_sets:
        assert validate_orthogonality(ks).violations == reference_violations(ks) == ()
