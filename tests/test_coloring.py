"""Validation, coloring search, brute-force oracle, and minimum defect."""
import hashlib
import random
import re
from itertools import combinations

import pytest

import ksbound as kb
from conftest import brute_force_coloring, connection_slots, disjoint_union
from ksbound import (
    Context,
    KsSet,
    Violation,
    assignment_defect,
    find_coloring,
    make_set,
    min_defect,
    validate_orthogonality,
)
from ksbound.model import incidence


def subset(ks, indices, name="sub"):
    return KsSet(
        name=name,
        dimension=ks.dimension,
        ring_radicand=ks.ring_radicand,
        vectors=ks.vectors,
        contexts=tuple(ks.contexts[i] for i in indices),
        m_override=None,
    )


@pytest.fixture(scope="module")
def cabello18x2_report(cabello18x2):
    return min_defect(cabello18x2)


def coloring_satisfies(ks, assignment):
    return all(
        sum(assignment[vid] for vid in ctx.vector_ids) == ks.dimension - 1
        for ctx in ks.contexts
    )


# --- validation ----------------------------------------------------------------


def test_validate_canonical_triad(triad):
    assert validate_orthogonality(triad).ok


def test_validate_flags_non_orthogonal_pair(triad):
    # KsSet refuses the set, and validate_orthogonality reports that refusal
    # for a set that skipped the constructor
    vs = [("a", (1, 0, 0)), ("b", (1, 1, 0)), ("c", (0, 0, 1))]
    message = "context not orthogonal (a·b != 0)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_set("bad", 3, vs, [("a", "b", "c")])
    bad = triad._replace(vectors=make_set("t", 3, vs, []).vectors)
    assert validate_orthogonality(bad) == (False, (Violation(message),))


def test_validate_flags_duplicate_ray_and_context(triad):
    vs = [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1))]
    ray = "duplicate ray: 'a2' is a scalar multiple of 'a'"
    context = "duplicate context (same vectors as context 0)"
    with pytest.raises(ValueError, match=f"^{re.escape(ray)}$"):
        make_set("dups", 3, vs + [("a2", (2, 0, 0))], [("a", "b", "c")])
    with pytest.raises(ValueError, match=f"^{re.escape(context)}$"):
        make_set("dups", 3, vs, [("a", "b", "c"), ("b", "a", "c")])
    a2 = triad.vectors[0]._replace(id="a2")
    # a context made by _make skipped Context's own check, which KsSet runs again
    repeats = Context._make((("a", "a", "b"),))
    for bad, message in ((triad._replace(vectors=(*triad.vectors, a2)), ray),
                         (triad._replace(contexts=triad.contexts * 2), context),
                         (triad._replace(contexts=(repeats,)), "context repeats vector id 'a'")):
        assert validate_orthogonality(bad) == (False, (Violation(message),))


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


# The search's branch order, pinned: node counts on the catalog sets, and a
# digest of every drop-one and drop-two remainder's (satisfiable, nodes,
# assignment).  A change in which context is taken next, or in which ray of
# it takes the zero first, shows here.
CATALOG_NODES = {"cabello18": 78, "kernaghan20": 101, "kernaghan-peres36": 561}
REMAINDER_DIGEST = "4690dfd24017f1d2776794c017b2717fa0b2c12a0c1a044b0218a439dcf4a6c6"


def test_search_branch_order_is_pinned(catalog_sets):
    digest = hashlib.sha256()
    for ks in catalog_sets:
        assert find_coloring(ks).nodes == CATALOG_NODES[ks.name]
        n_ctx = len(ks.contexts)
        for k in (1, 2):
            for drop in combinations(range(n_ctx), k):
                res = find_coloring(subset(ks, [i for i in range(n_ctx) if i not in drop]))
                assignment = None if res.assignment is None else sorted(res.assignment.items())
                digest.update(repr((ks.name, drop, res.satisfiable, res.nodes, assignment)).encode())
    assert digest.hexdigest() == REMAINDER_DIGEST


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
        assert assignment_defect(ks, rep.witness) == (0, 0)


def test_assignment_defect_refuses_a_wrong_length_or_value(cabello18):
    witness = min_defect(cabello18).witness
    assert len(witness) == 36
    for slots in (witness[:-1], witness + (1,)):
        with pytest.raises(ValueError, match="slot values for 36 slots"):
            assignment_defect(cabello18, slots)
    with pytest.raises(ValueError, match="must be 0 or 1"):
        assignment_defect(cabello18, (2,) + witness[1:])


def test_assignment_defect_refuses_a_0_or_1_that_is_not_an_integer(cabello18):
    # 1.0 scored as (9, 0.0), a float connection count; True is a bool
    for value in (1.0, True):
        with pytest.raises(ValueError, match=re.escape(f"slot value must be an integer, got {value!r}")):
            assignment_defect(cabello18, [value] * 36)


def test_min_defect_catalog_is_one(catalog_sets):
    for ks in catalog_sets:
        rep = min_defect(ks)
        assert rep.d_min == 1, ks.name
        assert assignment_defect(ks, rep.witness) == (1, 0)


# Witness slots, context by context: each set's first colorable drop-one
# remainder, pinned so that a change in probe order or search shows here.
CATALOG_WITNESSES = {
    "cabello18": "0110 0111 0111 0111 1110 1101 1101 1011 1011",
    "kernaghan20": "1010 1011 1110 1011 0111 0111 1101 1101 1011 1101 1101",
    "kernaghan-peres36": "01111110 01111111 01111111 01111111 11101111 01111111 "
    "01111111 11111101 01111111 01111111 11111101",
}


def test_min_defect_catalog_witness_is_pinned(catalog_sets):
    for ks in catalog_sets:
        rep = min_defect(ks)
        d = ks.dimension
        rows = " ".join(
            "".join(map(str, rep.witness[s : s + d])) for s in range(0, len(rep.witness), d)
        )
        assert rows == CATALOG_WITNESSES[ks.name]
        assert rep.d_min == 1 and assignment_defect(ks, rep.witness) == (1, 0)
        assert rep.nodes == 0  # the drop-one witness is optimal; no search ran


def test_min_defect_branch_and_bound_on_two_disjoint_copies(cabello18x2):
    # Dropping one context leaves the other copy uncolorable, so no drop-one
    # witness exists and the search must go on to drop pairs of contexts.
    rep = min_defect(cabello18x2)
    assert rep.d_min == 2
    assert rep.nodes == 35222
    assert assignment_defect(cabello18x2, rep.witness) == (2, 0)


def test_min_defect_witness_is_total(cabello18):
    rep = min_defect(cabello18)
    assert type(rep.witness) is tuple
    assert len(rep.witness) == len(cabello18.contexts) * cabello18.dimension
    assert all(v in (0, 1) for v in rep.witness)


@pytest.mark.parametrize(
    "name", ["cabello18", "kernaghan20", "kp36", "fan50", "cabello18x2", "loose_ray"]
)
def test_min_defect_witness_follows_the_incidence_numbering(name, request):
    # the witness holds slot c*d + p at that index, as incidence(ks) numbers
    # slots: all of a ray's slots hold one value, the one default_base reads
    ks = request.getfixturevalue(name)
    rep = min_defect(ks)
    assert len(rep.witness) == len(ks.contexts) * ks.dimension
    base = kb.default_base(ks, rep)
    for v, at in zip(ks.vectors, incidence(ks).slots):
        assert [rep.witness[s] for s in at] == [base[v.id]] * len(at), v.id
        assert at or base[v.id] == 1, v.id


def test_min_defect_refuses_a_wrong_witness(cabello18, monkeypatch):
    # the witness check is an explicit raise, so it also runs under python -O
    monkeypatch.setattr("ksbound.coloring.assignment_defect", lambda ks, slots: (1, 1))
    with pytest.raises(AssertionError, match=r"witness has defect \(1, 1\), expected \(1, 0\)"):
        min_defect(cabello18)


def test_random_slot_assignments_never_beat_min_defect(cabello18):
    rng = random.Random(7)
    d = cabello18.dimension
    n_ctx = len(cabello18.contexts)
    for _ in range(200):
        slots = [rng.randint(0, 1) for _ in range(n_ctx * d)]
        s, c = assignment_defect(cabello18, slots)
        assert s + c >= 1


def reference_assignment_defect(ks, slots):
    """``assignment_defect`` from the all-pairs connection list: the contexts
    whose sum is not d-1, and the connections whose two slots differ."""
    d = ks.dimension
    sums = sum(sum(slots[ci * d + p] for p in range(d)) != d - 1 for ci in range(len(ks.contexts)))
    split = sum(slots[a] != slots[b] for a, b in connection_slots(ks))
    return sums, split


def test_assignment_defect_matches_the_all_pairs_reference(catalog_sets, fan50, cabello18x2):
    # seeded slot assignments that split rays: uniform bits, a per-vector
    # value with a few slots flipped, and one with every slot flipped at 0.2
    rng = random.Random(14)
    for ks in (*catalog_sets, fan50, cabello18x2):
        layout = [vid for ctx in ks.contexts for vid in ctx.vector_ids]  # slot c*d + p
        splits = set()
        for trial in range(30):
            value = {v.id: rng.randint(0, 1) for v in ks.vectors}
            slots = [value[vid] for vid in layout]
            if trial % 3 == 0:
                slots = [rng.randint(0, 1) for _ in slots]
            elif trial % 3 == 1:
                for s in rng.sample(range(len(slots)), rng.randint(1, 3)):
                    slots[s] ^= 1
            else:
                slots = [x ^ (rng.random() < 0.2) for x in slots]
            got = assignment_defect(ks, slots)
            assert got == reference_assignment_defect(ks, slots), (ks.name, trial)
            splits.add(got[1])
        assert len(splits) > 2, ks.name  # rays were split, and in more than one way


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


def drops_that_repair(ks, slots):
    """Contexts whose removal turns a slot assignment into a coloring of the
    rest: every broken context, and for each ray whose slots disagree, the
    contexts holding its less common value (its zeros on a tie)."""
    d = ks.dimension
    drop = {ci for ci in range(len(ks.contexts)) if sum(slots[ci * d : ci * d + d]) != d - 1}
    held: dict[str, list[tuple[int, int]]] = {}
    for ci, ctx in enumerate(ks.contexts):
        for p, vid in enumerate(ctx.vector_ids):
            held.setdefault(vid, []).append((ci, slots[ci * d + p]))
    for where in held.values():
        ones = sum(value for _, value in where)
        minority = 1 if 2 * ones < len(where) else 0
        if 0 < ones < len(where):
            drop |= {ci for ci, value in where if value == minority}
    return drop


def test_drop_reduction_turns_any_slot_assignment_into_a_coloring(
    cabello18, cabello18x2, cabello18x2_report
):
    # The (>=) half of min_defect's argument: an assignment with s wrong sums
    # and c split connections becomes a coloring after at most s + c drops.
    rng = random.Random(11)
    for ks, best in ((cabello18, min_defect(cabello18)), (cabello18x2, cabello18x2_report)):
        d = ks.dimension
        n_ctx = len(ks.contexts)
        near = best.witness
        for trial in range(60):
            if trial % 2:
                slots = [rng.randint(0, 1) for _ in near]
            else:  # a few flips away from an optimum, where few drops suffice
                slots = list(near)
                for s in rng.sample(range(len(near)), rng.randint(1, 3)):
                    slots[s] ^= 1
            s, c = assignment_defect(ks, slots)
            drop = drops_that_repair(ks, slots)
            assert len(drop) <= s + c
            kept = [ci for ci in range(n_ctx) if ci not in drop]
            values = {ks.contexts[ci].vector_ids[p]: slots[ci * d + p] for ci in kept for p in range(d)}
            rest = subset(ks, kept)
            assert coloring_satisfies(rest, {**{v.id: 1 for v in ks.vectors}, **values})
            assert find_coloring(rest).satisfiable
            assert len(drop) >= best.d_min


def milp_min_defect(ks):
    """Minimum of wrong sums plus split connections over all slot
    assignments, as an integer program: slot x, broken-context flag s and
    split-connection flag y, with (1 - s_c)(d-1) <= sum(x_c) <= d-1 + s_c
    and y_e >= |x_i - x_j|."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    d = ks.dimension
    n_ctx = len(ks.contexts)
    pairs = connection_slots(ks)
    n_slots = n_ctx * d
    size = n_slots + n_ctx + len(pairs)
    rows, lower, upper = [], [], []
    for ci in range(n_ctx):
        for sign, slack in ((1, 1), (-1, d - 1)):  # sign * (sum - (d-1)) <= slack * s_c
            row = [0] * size
            for p in range(d):
                row[ci * d + p] = sign
            row[n_slots + ci] = -slack
            rows.append(row)
            lower.append(-float("inf"))
            upper.append(sign * (d - 1))
    for e, (i, j) in enumerate(pairs):
        for sign in (1, -1):  # sign * (x_i - x_j) - y_e <= 0
            row = [0] * size
            row[i], row[j], row[n_slots + n_ctx + e] = sign, -sign, -1
            rows.append(row)
            lower.append(-float("inf"))
            upper.append(0)
    cost = [0] * n_slots + [1] * (n_ctx + len(pairs))
    result = scipy_optimize.milp(
        cost,
        integrality=[1] * size,
        bounds=scipy_optimize.Bounds(0, 1),
        constraints=scipy_optimize.LinearConstraint(rows, lower, upper),
    )
    assert result.success
    return round(result.fun)


def test_min_defect_matches_an_integer_program(
    cabello18, kernaghan20, cabello18x2, cabello18x2_report
):
    assert milp_min_defect(cabello18x2) == cabello18x2_report.d_min == 2
    mixed = disjoint_union("cabello18_kernaghan20", cabello18, kernaghan20)
    cases = [mixed]
    rng = random.Random(8)
    n_ctx = len(mixed.contexts)
    for trial in range(10):  # drop 1-3 contexts: d_min 1 if one copy stays whole, else 0
        kept = sorted(rng.sample(range(n_ctx), n_ctx - rng.randint(1, 3)))
        cases.append(subset(mixed, kept, name=f"mixed-sub{trial}"))
    seen = set()
    for ks in cases:
        d_min = min_defect(ks).d_min
        assert milp_min_defect(ks) == d_min, ks.name
        seen.add(d_min)
    assert seen == {0, 1, 2}
