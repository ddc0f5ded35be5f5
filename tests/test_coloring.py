"""Validation, coloring search, brute-force oracle, and minimum defect."""
import random

import pytest

import ksbound as kb
from ksbound import (
    KsSet,
    assignment_defect,
    brute_force_coloring,
    build_stats,
    find_coloring,
    make_set,
    min_defect,
    validate_orthogonality,
)


def subset(ks, indices, name="sub"):
    return KsSet(
        name=name,
        dimension=ks.dimension,
        ring_radicand=ks.ring_radicand,
        vectors=ks.vectors,
        contexts=tuple(ks.contexts[i] for i in indices),
        m_override=None,
    )


def coloring_satisfies(ks, assignment):
    return all(
        sum(assignment[vid] for vid in ctx.vector_ids) == ks.dimension - 1
        for ctx in ks.contexts
    )


# --- validation ----------------------------------------------------------------


def test_validate_canonical_triad(triad):
    assert validate_orthogonality(triad).ok


def test_validate_flags_non_orthogonal_pair():
    ks = make_set(
        "bad",
        3,
        [("a", (1, 0, 0)), ("b", (1, 1, 0)), ("c", (0, 0, 1))],
        [("a", "b", "c")],
    )
    report = validate_orthogonality(ks)
    assert not report.ok
    kinds = [v.kind for v in report.violations]
    assert kinds == ["non-orthogonal"]
    v = report.violations[0]
    assert "a·b != 0" in v.message
    assert v.context_index == 0 and v.vector_ids == ("a", "b")


def test_validate_flags_duplicate_ray_and_context():
    ks = make_set(
        "dups",
        3,
        [("a", (1, 0, 0)), ("a2", (2, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1))],
        [("a", "b", "c"), ("b", "a", "c")],
    )
    report = validate_orthogonality(ks)
    kinds = {v.kind for v in report.violations}
    assert "duplicate-ray" in kinds
    assert "duplicate-context" in kinds


def test_validate_catalog(catalog_sets):
    for ks in catalog_sets:
        assert validate_orthogonality(ks).ok


# --- find_coloring ---------------------------------------------------------------


def test_single_triad_colorable(triad):
    res = find_coloring(triad)
    assert res.satisfiable
    assert coloring_satisfies(triad, res.assignment)


def test_shared_vector_colorable(two_triads):
    res = find_coloring(two_triads)
    assert res.satisfiable
    assert coloring_satisfies(two_triads, res.assignment)


def test_unconstrained_vector_defaults_to_one():
    ks = make_set(
        "loose",
        3,
        [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1)), ("free", (1, 1, 1))],
        [("a", "b", "c")],
    )
    res = find_coloring(ks)
    assert res.satisfiable and res.assignment["free"] == 1


def test_catalog_uncolorable(catalog_sets):
    for ks in catalog_sets:
        res = find_coloring(ks)
        assert not res.satisfiable, ks.name
        assert res.assignment is None
        assert res.nodes > 0


def test_search_certificate_deterministic(cabello18):
    a = find_coloring(cabello18)
    b = find_coloring(cabello18)
    assert (a.satisfiable, a.nodes) == (b.satisfiable, b.nodes)


# --- brute force oracle -----------------------------------------------------------


def test_brute_force_triad(triad):
    res = brute_force_coloring(triad)
    assert res.satisfiable
    assert res.nodes == 8
    assert res.solutions == 3  # choose which vector takes the zero
    assert coloring_satisfies(triad, res.assignment)


def test_brute_force_cabello18(cabello18):
    res = brute_force_coloring(cabello18)
    assert not res.satisfiable
    assert res.nodes == 262144
    assert res.solutions == 0


def test_brute_force_kernaghan20(kernaghan20):
    res = brute_force_coloring(kernaghan20)
    assert not res.satisfiable
    assert res.nodes == 2**20
    assert res.solutions == 0


def test_brute_force_size_limit(kp36):
    with pytest.raises(ValueError, match="too large"):
        brute_force_coloring(kp36)


def test_oracle_equivalence_on_random_subsets(cabello18, kernaghan20):
    rng = random.Random(20260819)
    for ks in (cabello18, kernaghan20):
        n_ctx = len(ks.contexts)
        for trial in range(25):
            k = rng.randint(1, n_ctx)
            indices = sorted(rng.sample(range(n_ctx), k))
            sub = subset(ks, indices, name=f"{ks.name}-sub{trial}")
            fast = find_coloring(sub)
            slow = brute_force_coloring(sub)
            assert fast.satisfiable == slow.satisfiable, (ks.name, indices)
            if fast.satisfiable:
                assert coloring_satisfies(sub, fast.assignment)


# --- minimum defect ----------------------------------------------------------------


def test_min_defect_zero_on_colorable(triad, two_triads):
    for ks in (triad, two_triads):
        rep = min_defect(ks)
        assert rep.d_min == 0
        assert (rep.sum_defects, rep.connection_defects) == (0, 0)
        assert assignment_defect(ks, rep.witness) == (0, 0)


def test_min_defect_catalog_is_one(catalog_sets):
    for ks in catalog_sets:
        rep = min_defect(ks)
        assert rep.d_min == 1, ks.name
        s, c = assignment_defect(ks, rep.witness)
        assert s + c == 1
        assert (rep.sum_defects, rep.connection_defects) == (s, c)


# Witness slots, context by context: the witnesses the full branch-and-bound
# returns, so stopping at the drop-one witness must leave them unchanged.
CATALOG_WITNESSES = {
    "cabello18": "0110 0111 0111 0111 1110 1101 1101 1011 1011",
    "kernaghan20": "1010 1011 1110 1011 0111 0111 1101 1101 1011 1101 1101",
    "kernaghan-peres36": "01111110 01111111 01111111 01111111 11101111 01111111 "
    "01111111 11111101 01111111 01111111 11111101",
}


def test_min_defect_catalog_witness_is_pinned(catalog_sets):
    for ks in catalog_sets:
        rep = min_defect(ks)
        rows = " ".join(
            "".join(str(rep.witness[(ci, p)]) for p in range(ks.dimension))
            for ci in range(len(ks.contexts))
        )
        assert rows == CATALOG_WITNESSES[ks.name]
        assert (rep.d_min, rep.sum_defects, rep.connection_defects) == (1, 1, 0)
        assert rep.nodes == 0  # the drop-one witness is optimal; no search ran


def test_min_defect_branch_and_bound_on_two_disjoint_copies(cabello18):
    # Dropping one context leaves the other copy uncolorable, so no drop-one
    # witness exists and the branch-and-bound must prove d_min = 2 itself.
    def renamed(tag):
        return {v.id: f"{tag}{v.id}" for v in cabello18.vectors}

    a, b = renamed("a_"), renamed("b_")
    doubled = KsSet(
        name="cabello18x2",
        dimension=cabello18.dimension,
        ring_radicand=cabello18.ring_radicand,
        vectors=tuple(
            kb.RayVector(ids[v.id], v.components)
            for ids in (a, b)
            for v in cabello18.vectors
        ),
        contexts=tuple(
            kb.Context(tuple(ids[vid] for vid in ctx.vector_ids))
            for ids in (a, b)
            for ctx in cabello18.contexts
        ),
    )
    rep = min_defect(doubled)
    assert rep.d_min == 2
    assert rep.nodes > 0
    assert assignment_defect(doubled, rep.witness) == (rep.sum_defects, rep.connection_defects)
    assert rep.sum_defects + rep.connection_defects == 2


def test_min_defect_witness_is_total(cabello18):
    rep = min_defect(cabello18)
    d = cabello18.dimension
    assert set(rep.witness) == {
        (ci, p) for ci in range(len(cabello18.contexts)) for p in range(d)
    }
    assert all(v in (0, 1) for v in rep.witness.values())


def test_random_slot_assignments_never_beat_min_defect(cabello18):
    rng = random.Random(7)
    d = cabello18.dimension
    n_ctx = len(cabello18.contexts)
    for _ in range(200):
        slots = {
            (ci, p): rng.randint(0, 1) for ci in range(n_ctx) for p in range(d)
        }
        s, c = assignment_defect(cabello18, slots)
        assert s + c >= 1


def test_bulk_random_assignments_defect_floor(cabello18):
    # simulate_model at r=1/2 XORs the base with uniform random bits, so its
    # per-trial minimum sweeps 10^5 uniformly random slot assignments.
    base = {v.id: 1 for v in cabello18.vectors}
    model = kb.TrialModel(ks_set=cabello18, base=base, flip_rate=0.5, seed=99)
    summary = kb.simulate_model(model, 100_000)
    assert summary.min_trial_defect >= 1


def test_dropping_any_context_does_not_increase_dmin(cabello18):
    assert min_defect(cabello18).d_min == 1
    for ci in range(len(cabello18.contexts)):
        indices = [i for i in range(len(cabello18.contexts)) if i != ci]
        sub = subset(cabello18, indices, name=f"drop{ci}")
        assert min_defect(sub).d_min <= 1


def test_min_defect_nodes_deterministic(kernaghan20):
    a = min_defect(kernaghan20)
    b = min_defect(kernaghan20)
    assert a.d_min == b.d_min and a.nodes == b.nodes and a.witness == b.witness
