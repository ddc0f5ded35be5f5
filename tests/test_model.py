"""Vectors, contexts, set construction, and derived statistics."""
from fractions import Fraction

import pytest

import ksbound as kb
from ksbound import (
    Context,
    DimensionMismatchError,
    ExactScalar,
    KsSet,
    RayVector,
    RingMismatchError,
    build_stats,
    inner_product,
    make_set,
    same_ray,
)


def vec(vid, *comps, k=1):
    return RayVector(vid, tuple(ExactScalar.of(c, 0, k) for c in comps))


def test_inner_product_rational():
    assert inner_product(vec("a", 1, 0, 0), vec("b", 0, 1, 0)).is_zero()
    assert inner_product(vec("a", 1, 1, 0), vec("b", 1, -1, 0)).is_zero()
    ip = inner_product(vec("a", 1, 1, 0), vec("b", 1, 0, 0))
    assert ip == ExactScalar.of(1)


def test_inner_product_with_surds():
    # (sqrt2, -1, 0) . (1, sqrt2, 0) = sqrt2 - sqrt2 = 0
    u = RayVector("u", (ExactScalar.of(0, 1, 2), ExactScalar.of(-1, 0, 2), ExactScalar.of(0, 0, 2)))
    v = RayVector("v", (ExactScalar.of(1, 0, 2), ExactScalar.of(0, 1, 2), ExactScalar.of(0, 0, 2)))
    assert inner_product(u, v).is_zero()
    norm = inner_product(u, u)
    assert norm == ExactScalar.of(3, 0, 2)


def test_inner_product_mismatches():
    with pytest.raises(DimensionMismatchError):
        inner_product(vec("a", 1, 0, 0), vec("b", 1, 0))
    with pytest.raises(RingMismatchError):
        inner_product(vec("a", 1, 0, 0), vec("b", 1, 0, 0, k=2))


def test_same_ray_scalar_multiples():
    assert same_ray(vec("a", 2, 0, 0), vec("b", 1, 0, 0))
    assert same_ray(vec("a", Fraction(1, 2), Fraction(1, 3), 0), vec("b", 3, 2, 0))
    assert not same_ray(vec("a", 1, 1, 0), vec("b", 1, -1, 0))
    assert not same_ray(vec("a", 1, 0, 0), vec("b", 0, 1, 0))


def test_same_ray_surd_scaling():
    # v = sqrt2 * u
    u = RayVector("u", (ExactScalar.of(0, 1, 2), ExactScalar.of(0, 1, 2), ExactScalar.of(2, 0, 2)))
    v = RayVector("v", (ExactScalar.of(2, 0, 2), ExactScalar.of(2, 0, 2), ExactScalar.of(0, 2, 2)))
    assert same_ray(u, v)


def test_ray_vector_validation():
    with pytest.raises(ValueError, match="zero vector"):
        vec("z", 0, 0, 0)
    with pytest.raises(ValueError, match="no components"):
        RayVector("e", ())
    with pytest.raises(RingMismatchError):
        RayVector("m", (ExactScalar.of(1, 0, 2), ExactScalar.of(1, 0, 3)))


def test_context_rejects_repeats():
    with pytest.raises(ValueError, match="repeats"):
        Context(("a", "b", "a"))


def test_set_structural_validation():
    vs = [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1))]
    with pytest.raises(ValueError, match="dimension must be >= 3"):
        make_set("bad", 2, [("a", (1, 0)), ("b", (0, 1))], [])
    with pytest.raises(ValueError, match="undeclared"):
        make_set("bad", 3, vs, [("a", "b", "x")])
    with pytest.raises(ValueError, match="expected 3"):
        make_set("bad", 3, vs, [("a", "b")])
    with pytest.raises(ValueError, match="duplicate vector id"):
        make_set("bad", 3, vs + [("a", (0, 1, 1))], [])
    with pytest.raises(DimensionMismatchError):
        make_set("bad", 3, [("a", (1, 0))], [])
    with pytest.raises(ValueError, match="m_override must be non-negative"):
        make_set("bad", 3, vs, [], m_override=-1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        KsSet("bad", 3, 10**18 + 3, (), ())


def test_vector_lookup(triad):
    assert triad.vector("b").id == "b"
    with pytest.raises(KeyError):
        triad.vector("nope")


def test_stats_single_triad(triad):
    st = build_stats(triad)
    assert (st.n, st.N, st.M) == (3, 1, 0)
    assert st.connections == ()
    assert st.multiplicities == {"a": 1, "b": 1, "c": 1}


def test_stats_shared_vector(two_triads):
    st = build_stats(two_triads)
    assert (st.n, st.N, st.M) == (5, 2, 1)
    assert st.connections == (("a", (0, 1)),)
    assert st.multiplicities["a"] == 2


def test_stats_override_keeps_connections(two_triads):
    ks = KsSet(
        name=two_triads.name,
        dimension=two_triads.dimension,
        ring_radicand=two_triads.ring_radicand,
        vectors=two_triads.vectors,
        contexts=two_triads.contexts,
        m_override=7,
    )
    st = build_stats(ks)
    assert st.M == 7
    assert st.m_all_pairs == 1
    assert st.connections == (("a", (0, 1)),)


def test_stats_slot_count_identity(catalog_sets):
    # every context contributes d slots: sum of multiplicities = N*d
    for ks in catalog_sets:
        st = build_stats(ks)
        assert sum(st.multiplicities.values()) == st.N * ks.dimension


def test_catalog_published_parameters(catalog_sets):
    expected = {
        "cabello18": (4, 18, 9, 18),
        "kernaghan20": (4, 20, 11, 30),
        "kernaghan-peres36": (8, 36, 11, 72),
    }
    for ks in catalog_sets:
        st = build_stats(ks)
        assert (ks.dimension, st.n, st.N, st.M) == expected[ks.name]


def test_kp36_override_structure(kp36):
    st = build_stats(kp36)
    assert kp36.m_override == 72
    assert st.m_all_pairs == 76
    mults = sorted(st.multiplicities.values())
    assert mults.count(2) == 28 and mults.count(4) == 8


def test_connection_pairs_are_ordered(catalog_sets):
    for ks in catalog_sets:
        st = build_stats(ks)
        for vid, (a, b) in st.connections:
            assert 0 <= a < b < st.N
            assert vid in ks.contexts[a].vector_ids
            assert vid in ks.contexts[b].vector_ids
