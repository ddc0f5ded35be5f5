"""Canonical integer ray keys against the exact definitions they replace.

The references below are the checks the parser and ``KsSet`` made before rays
carried keys, on the tests' field oracle (``conftest``): 2x2 minors for ray
equality and the exact inner product ``dot`` for orthogonality.
"""
import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import ksbound as kb
from conftest import add, dot, inverse, mul, sub
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
    return not any(sub(mul(a[i], b[j]), mul(a[j], b[i])) for i, j in combinations(range(len(a)), 2))


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
            vec = RayVector(tokens[1], tuple(_parse_component(c, radicand) for c in tokens[2:]))
            for known in vecs.values():
                if minors_same_ray(known, vec):
                    return f"duplicate ray: {vec.id!r} is a scalar multiple of {known.id!r}", lineno
            vecs[vec.id] = vec
        elif tokens[:1] == ["ctx"]:
            for a, b in combinations(tokens[1:], 2):
                if dot(vecs[a], vecs[b]):
                    return f"context not orthogonal ({a}·{b} != 0)", lineno
    return None


def reference_violations(ks):
    """Every violation among a set's fields, by minors and inner products, in
    the order ``KsSet``'s checks meet them, as (message, what to drop to mend
    it): each vector on the ray of an earlier one, named with the first of
    those, then each context that repeats an earlier one or holds a pair
    that is not orthogonal."""
    out, vs, seen = [], ks.vectors, {}
    by_id = {v.id: v for v in vs}
    for j, v in enumerate(vs):
        u = next((u for u in vs[:j] if minors_same_ray(u, v)), None)
        if u is not None:
            out.append((f"duplicate ray: {v.id!r} is a scalar multiple of {u.id!r}", ("vector", v.id)))
    for ci, ctx in enumerate(ks.contexts):
        key = frozenset(ctx.vector_ids)
        if key in seen:
            out.append((f"duplicate context (same vectors as context {seen[key]})", ("context", ci)))
        seen.setdefault(key, ci)
        for a, b in combinations(ctx.vector_ids, 2):
            if dot(by_id[a], by_id[b]):
                out.append((f"context not orthogonal ({a}·{b} != 0)", ("context", ci)))
    return out


# --- the key against the minor definition ------------------------------------------


def scalar(r, s=0, k=2):
    return ExactScalar(r, s, k)


def scaled(c, u, vid="v"):
    return RayVector(vid, tuple(mul(c, x) for x in u.components))


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
        if not any(comps):
            comps = (ExactScalar(1, 0, k),) + comps[1:]
        return RayVector(vid, comps)

    u = vector("u")
    how = draw(st.sampled_from(["multiple", "orthogonal", "nudged", "random"]))
    if how == "random":
        return u, vector("v")
    if how == "orthogonal":
        w = vector("w")
        c = mul(dot(w, u), inverse(dot(u, u)))
        comps = tuple(sub(x, mul(c, y)) for x, y in zip(w.components, u.components))
        return u, (RayVector("v", comps) if any(comps) else w)
    c = element()
    if not c:
        c = ExactScalar(-1, 0, k)
    v = scaled(c, u)
    if how == "nudged":
        i = draw(st.integers(0, d - 1))
        comps = list(v.components)
        comps[i] = add(comps[i], element())
        if any(comps):
            v = RayVector("v", tuple(comps))
    return u, v


@settings(max_examples=300, deadline=None)
@given(related_pair())
def test_key_decides_what_minors_and_inner_products_decide(pair):
    u, v = pair
    assert same_ray(u, v) == (u.key == v.key) == minors_same_ray(u, v)
    assert orthogonal(u, v) == (not dot(u, v))


@settings(max_examples=200, deadline=None)
@given(related_pair())
def test_inner_product_is_the_oracle_sum_of_products(pair):
    # the value itself, not only whether it is zero, and symmetric
    u, v = pair
    assert inner_product(u, v) == dot(u, v) == inner_product(v, u)


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
        ks = parse_document(text).ks_set
    except ParseError as exc:
        return exc.message, exc.line
    assert KsSet(*ks) == ks  # the constructor accepts what the parser accepts
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
    """The fields of a set over Q(sqrt 2), unchecked: ``_make`` skips ``KsSet``'s checks."""
    vecs = tuple(RayVector(vid, tuple(scalar(*c) for c in comps)) for vid, comps in vectors)
    return KsSet._make((name, 3, 2, vecs, tuple(Context(tuple(c)) for c in contexts), None))


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


def without(ks, drop):
    """``ks`` less one vector, with every context that names it, or less one context."""
    what, which = drop
    if what == "vector":
        return ks._replace(vectors=tuple(v for v in ks.vectors if v.id != which),
                           contexts=tuple(c for c in ks.contexts if which not in c.vector_ids))
    return ks._replace(contexts=ks.contexts[:which] + ks.contexts[which + 1:])


def test_validate_matches_the_minor_reference_on_hand_built_sets(catalog_sets):
    # KsSet refuses each hand-built set with the reference's first violation,
    # which validate_orthogonality reports; mending that one shows the next,
    # until the set is built
    refused = {}
    for ks in HAND_SETS:
        walk = refused[ks.name] = []
        while found := reference_violations(ks):
            message, drop = found[0]
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                KsSet(*ks)
            assert validate_orthogonality(ks) == (False, (Violation(message),))
            walk.append(message)
            ks = without(ks, drop)
        assert KsSet(*ks) == ks and validate_orthogonality(ks).ok
    kinds = {m.split(":")[0].split(" (")[0] for walk in refused.values() for m in walk}
    assert kinds == {"duplicate ray", "duplicate context", "context not orthogonal"}
    # surd multiples: sqrt2, -3, 1 + sqrt2, -sqrt2 and -3 + 2 sqrt2 times an earlier ray
    assert refused["dups"] == [f"duplicate ray: {v!r} is a scalar multiple of {u!r}" for v, u in
                               [("a2", "a"), ("b2", "b"), ("a3", "a"), ("c2", "c"), ("b3", "b")]]
    assert len(refused["skew"]) == 3 and len(refused["repeats"]) == 4
    for ks in catalog_sets:
        assert reference_violations(ks) == [] and KsSet(*ks) == ks


# --- pinned keys and orthogonality over every ring ------------------------------

#: SHA-256 of the keys and verdicts in ``test_keys_and_orthogonality_are_pinned``.
PINNED_KEYS = "b60958c3a257c69aba448f20fda96883282537d8c098af5c2af065a3fab2e9f4"


def pinned_vectors(k, d, rng):
    """Seeded vectors over Q(sqrt k) of dimension d: integer and fractional
    components, with and without surds, zero pairs in front, leading entries
    of either norm sign (1 + sqrt 2 has norm -1), and multiples of and
    orthogonal partners to earlier vectors."""
    whole = (0, 1, -1, 2, -3)
    parts = whole + (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3))
    out = []
    for i in range(14):
        pool = whole if i % 2 else parts
        surds = pool if k > 1 and i % 3 else (0,)
        comps = [ExactScalar(Fraction(rng.choice(pool)), Fraction(rng.choice(surds)), k)
                 for _ in range(d)]
        lead = i % 3  # zero pairs in front
        comps[:lead] = [ExactScalar(0, 0, k)] * lead
        if i % 4 == 1 and k > 1:
            comps[lead] = ExactScalar(1, 1, k)
        if not any(comps):
            comps[-1] = ExactScalar(-2, 0, k)
        out.append(RayVector(f"v{i}", tuple(comps)))
    for i, u in enumerate(out[:8]):
        r = rng.choice((1, -3, 0, Fraction(5, 2)))
        c = ExactScalar(r, rng.choice((1, 2, -7)) if k > 1 else 0, k)
        out.append(scaled(c if c else ExactScalar(-1, 0, k), u, f"m{i}"))
        w = out[(i + 5) % 14]
        c = mul(dot(w, u), inverse(dot(u, u)))
        comps = tuple(sub(x, mul(c, y)) for x, y in zip(w.components, u.components))
        if any(comps):
            out.append(RayVector(f"o{i}", comps))
    return out


def test_keys_and_orthogonality_are_pinned():
    # every key and every pair's orthogonality over Q and five surd rings must
    # match across commits, and each verdict must be the inner product's
    rng = random.Random(1919)
    record, hits = [], 0
    for k in (1, 2, 3, 5, 6, 7):
        assert kb.model._ray_key((ExactScalar(0, 0, k),) * 3, k) is None
        for d in (3, 4, 5):
            vs = pinned_vectors(k, d, rng)
            keys = [kb.model._ray_key(v.components, k) for v in vs]
            assert keys == [v.key for v in vs]
            verdicts = [orthogonal(u, v) for u, v in combinations(vs, 2)]
            assert verdicts == [not dot(u, v) for u, v in combinations(vs, 2)]
            hits += sum(verdicts)
            record.append([k, d, keys, "".join("01"[b] for b in verdicts)])
    assert hits >= 100, hits
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == PINNED_KEYS
