"""Seeded Monte Carlo: analytic agreement, determinism, defect floor."""
import hashlib
import json
import math
import random
from itertools import combinations

import numpy as np
import pytest

import ksbound as kb
import ksbound.simulate as sim
from conftest import connection_slots
from ksbound import (
    SimSummary,
    TrialModel,
    build_stats,
    critical_rate,
    default_base,
    delta_analytic,
    empirical_inequality_check,
    epsilon_analytic,
    find_coloring,
    min_defect,
    simulate_model,
)


def set_chunk_rows(monkeypatch, ks, rows):
    """Make ``simulate_model`` hold ``rows`` trials of ``ks`` per chunk."""
    monkeypatch.setattr("ksbound.simulate.CHUNK_SLOTS", rows * len(ks.contexts) * ks.dimension)


# --- full model simulation -------------------------------------------------------


def test_model_validation(triad):
    with pytest.raises(ValueError, match="flip rate"):
        TrialModel(ks_set=triad, base={"a": 0, "b": 1, "c": 1}, flip_rate=1.5, seed=0)
    with pytest.raises(ValueError, match="base assignment"):
        TrialModel(ks_set=triad, base={"a": 0, "b": 1}, flip_rate=0.1, seed=0)
    with pytest.raises(ValueError, match="base assignment"):
        TrialModel(ks_set=triad, base={"a": 0, "b": 1, "c": 2}, flip_rate=0.1, seed=0)


def test_simulator_input_validation(triad):
    model = TrialModel(ks_set=triad, base={"a": 0, "b": 1, "c": 1}, flip_rate=0.1, seed=0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        simulate_model(model, 0)


def test_noise_free_satisfying_base_has_zero_defect(two_triads):
    base = find_coloring(two_triads).assignment
    summary = simulate_model(TrialModel(two_triads, base, 0.0, seed=4), 500)
    assert summary.total_defect == 0
    assert summary.min_trial_defect == 0
    assert set(summary.context_error_counts) == {0}
    assert set(summary.connection_mismatch_counts) == {0}
    assert summary.mean_total_defect == 0.0


def test_noise_free_ks_base_defect_is_exact(cabello18):
    # with r=0 every trial repeats the base's defect; the default base is
    # min_defect-optimal, so the mean is exactly 1
    base = default_base(cabello18)
    summary = simulate_model(TrialModel(cabello18, base, 0.0, seed=0), 123)
    assert summary.mean_total_defect == 1.0
    assert summary.min_trial_defect == 1


def test_counter_identity_and_rates(cabello18):
    base = default_base(cabello18)
    summary = simulate_model(TrialModel(cabello18, base, 0.0142, seed=2), 4096)
    st = build_stats(cabello18)
    assert len(summary.context_error_counts) == st.N
    assert len(summary.connection_mismatch_counts) == st.m_all_pairs
    assert summary.total_defect == sum(summary.context_error_counts) + sum(
        summary.connection_mismatch_counts
    )
    # trials is a power of two, so the rate divisions are exact
    assert summary.mean_total_defect == pytest.approx(
        sum(summary.delta_hat) + sum(summary.epsilon_hat), rel=1e-12
    )
    assert all(0 <= x <= 1 for x in summary.delta_hat)
    assert all(0 <= x <= 1 for x in summary.epsilon_hat)


def family_z(checks, alpha=1e-6):
    """Two-sided z bound for ``checks`` rates at family-wise false-alarm
    rate ``alpha`` (union bound with the Gaussian tail)."""
    return math.sqrt(2 * math.log(2 * checks / alpha))


def test_connection_mismatch_rate_is_base_independent(cabello18):
    # mismatch = (flip1 != flip2) regardless of the base bit, so every
    # connection tracks delta_analytic even on a defective base
    base = default_base(cabello18)
    summary = simulate_model(TrialModel(cabello18, base, 0.0142, seed=12), 800_000)
    expect = delta_analytic(0.0142)
    bound = family_z(len(summary.delta_hat)) * math.sqrt(expect * (1 - expect) / summary.trials)
    for rate in summary.delta_hat:
        assert abs(rate - expect) <= bound


def test_intact_context_rate_tracks_epsilon_analytic(cabello18):
    base = default_base(cabello18)
    broken = {
        ci
        for ci, ctx in enumerate(cabello18.contexts)
        if sum(base[v] for v in ctx.vector_ids) != cabello18.dimension - 1
    }
    assert len(broken) == 1  # min-defect base violates exactly one context
    summary = simulate_model(TrialModel(cabello18, base, 0.0142, seed=12), 800_000)
    expect = epsilon_analytic(0.0142, 4)
    intact = len(summary.epsilon_hat) - len(broken)
    bound = family_z(intact) * math.sqrt(expect * (1 - expect) / summary.trials)
    for ci, rate in enumerate(summary.epsilon_hat):
        if ci in broken:
            assert rate > 0.9  # stays broken unless flips repair it
        else:
            assert abs(rate - expect) <= bound


def test_model_determinism_and_chunk_invariance(kernaghan20, monkeypatch):
    base = default_base(kernaghan20)
    model = TrialModel(kernaghan20, base, 0.1, seed=31)
    a = simulate_model(model, 10_000)
    b = simulate_model(model, 10_000)
    set_chunk_rows(monkeypatch, kernaghan20, 333)
    c = simulate_model(model, 10_000)
    assert a == b == c
    assert a != simulate_model(TrialModel(kernaghan20, base, 0.1, seed=32), 10_000)


def reference_flip_offsets(seed, r, total, width):
    """``flip_offsets`` as it was before its gaps were drawn into reused
    buffers: fresh arrays from ``Generator.geometric`` for every draw."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    last = -1  # the last position drawn
    carry = np.empty(0, dtype=np.int64)
    for lo in range(0, total, width):
        hi = min(lo + width, total)
        parts = [carry]
        while r > 0 and last < hi - 1:
            ahead = total - last  # a gap this long lands past the run
            mean = r * (hi - 1 - last)
            # about 4 sigma past the mean count, so one draw usually reaches
            # hi; numpy clamps gaps at 2^63 - 1 for tiny r, so clip each to
            # ``ahead`` and draw few enough that the cumulative sum fits int64
            n = min(int(mean + 4 * math.sqrt(mean)) + 16, (2**63 - 1 - last) // ahead)
            pos = np.cumsum(np.minimum(gen.geometric(r, n), ahead))
            pos += last
            last = int(pos[-1])
            parts.append(pos)
        flips = np.concatenate(parts)
        cut = int(np.searchsorted(flips, hi))
        carry = flips[cut:]
        yield flips[:cut] - lo


def flip_offsets(seed, r, total, width):
    """Every chunk of the run: ``_live_flip_offsets``'s, then empty ones."""
    live, empty = sim._live_flip_offsets(seed, r, total, width), np.empty(0, dtype=np.int64)
    return (next(live, empty) for _ in range(0, total, width))


#: rates either side of numpy's geometric switch at 1/3, and two (5e-324 and
#: 1e-300) whose gaps saturate at 2^63 - 1
STREAM_RATES = [
    0.0, 5e-324, 1e-300, 1e-18, 1e-9, 0.0032, 0.0142, 0.1, 0.3,
    math.nextafter(1 / 3, 0), 1 / 3, 0.5, 1.0,
]


@pytest.mark.parametrize("rate", STREAM_RATES)
def test_flip_offsets_match_reference(rate):
    big = 2 * sim.CHUNK_SLOTS + 3
    runs = [(300, 1), (300, 7), (300, 300), (big, sim.CHUNK_SLOTS), (big, big)]
    if rate < 1e-17:  # a run near 2^63 slots in one chunk, where gaps reach ahead
        runs.append((2**63 - 2, 2**63 - 2))
    for total, width in runs:
        for seed in (0, 5):
            got = [q.copy() for q in flip_offsets(seed, rate, total, width)]
            want = list(reference_flip_offsets(seed, rate, total, width))
            assert len(got) == len(want), (total, width, seed)
            for i, (a, b) in enumerate(zip(got, want)):
                assert a.dtype == b.dtype and np.array_equal(a, b), (total, width, seed, i)


@pytest.mark.parametrize("rate", [r for r in STREAM_RATES if r > 0])
def test_geometric_gaps_match_numpy(rate):
    # the draw helper is numpy's geometric sampler, state and all: if numpy
    # changes how it draws, this fails before the stream test does
    n = 5000
    out = np.empty(n, dtype=np.int64)
    for seed in (0, 1, 2**64 - 1):
        ours = np.random.Generator(np.random.Philox(key=seed))
        numpys = np.random.Generator(np.random.Philox(key=seed))
        sim._geometric_gaps(ours, rate, 2**63 - 1, out)
        assert np.array_equal(out, numpys.geometric(rate, n)), seed
        assert np.array_equal(ours.geometric(rate, 1000), numpys.geometric(rate, 1000)), seed


#: SHA-256 of the seeded summaries in ``test_seeded_counters_are_pinned``.
PINNED_SUMMARIES = "3bb4dba1ebf8389a541dda46bcea5bfd772c2c71ccac4e0836fb8dcdd1e0522c"


def test_seeded_counters_are_pinned(catalog_sets):
    # every counter, and so every ``simulate --json`` byte, must match across
    # commits for a fixed (set, base, r, seed, trials); 40,000 trials span two
    # chunks of every catalog set
    summaries = []
    for i, ks in enumerate(catalog_sets):
        base = default_base(ks)
        st = build_stats(ks)
        for j, rate in enumerate((critical_rate(st.N, st.M, ks.dimension).r, 0.1, 0.5)):
            model = TrialModel(ks, base, rate, seed=1000 + 10 * i + j)
            summaries.append(list(simulate_model(model, 40_000)))
    digest = hashlib.sha256(json.dumps(summaries).encode()).hexdigest()
    assert digest == PINNED_SUMMARIES


def dense_reference(model, trials):
    """The counters of ``simulate_model`` from the whole (trial, slot) flip
    matrix: the same geometric gaps, evaluated densely."""
    ks, r = model.ks_set, model.flip_rate
    d, n_ctx = ks.dimension, len(ks.contexts)
    slots = n_ctx * d
    flips = np.zeros(trials * slots, dtype=bool)
    if r > 0:
        gaps = np.random.Generator(np.random.Philox(key=model.seed)).geometric(r, trials * slots)
        pos = np.cumsum(gaps) - 1
        flips[pos[pos < trials * slots]] = True
    base = np.array([model.base[v] for ctx in ks.contexts for v in ctx.vector_ids], dtype=bool)
    left, right = np.array(connection_slots(ks), dtype=np.intp).reshape(-1, 2).T
    values = flips.reshape(trials, slots) ^ base
    bad_ctx = values.reshape(trials, n_ctx, d).sum(axis=2) != d - 1
    mism = values[:, left] != values[:, right]
    per_trial = bad_ctx.sum(axis=1) + mism.sum(axis=1)
    return SimSummary(
        seed=model.seed,
        trials=trials,
        r=r,
        context_error_counts=tuple(int(c) for c in bad_ctx.sum(axis=0)),
        connection_mismatch_counts=tuple(int(c) for c in mism.sum(axis=0)),
        total_defect=int(per_trial.sum()),
        min_trial_defect=int(per_trial.min()),
    )


def case_model(case, rate, seed, request):
    """The model a parametrized case names: the fixture set ``case`` with its
    default base, or ``random:<set>`` with a seeded random base; ``"r*"``
    is the set's critical rate."""
    name = case.removeprefix("random:")
    ks = request.getfixturevalue(name)
    if name == case:
        base = default_base(ks)
    else:
        rng = random.Random(case)
        base = {v.id: rng.randint(0, 1) for v in ks.vectors}
    if rate == "r*":
        st = build_stats(ks)
        rate = critical_rate(st.N, st.M, ks.dimension).r
    return TrialModel(ks, base, rate, seed)


@pytest.mark.parametrize("rate", [1e-3, "r*", 0.1, 0.5, 1.0])
@pytest.mark.parametrize(
    "case", ["cabello18", "kernaghan20", "kp36", "two_triads", "random:cabello18", "random:kp36"]
)
def test_model_matches_dense_reference(case, rate, request, monkeypatch):
    model = case_model(case, rate, 2024, request)
    expect = dense_reference(model, 700)
    assert simulate_model(model, 700) == expect
    for rows in (1, 333):
        set_chunk_rows(monkeypatch, model.ks_set, rows)
        assert simulate_model(model, 700) == expect, rows


def hand_built_chunks(base, left, right, d, n):
    """Chunks of ``n`` trials, as sorted flip offsets, that each take one
    path of the sparse kernel: no flip at all; two flips in one (trial,
    context) that cancel; three flips in one context; the two ends of one
    connection in one trial, then in two; every slot of the ray with the
    most slots, if it has three or more, in one trial; the two ends of the
    first and of the last connection, on two rays, in one trial; a flip on
    a ray in one context only, beside another flip; and a flip in every
    trial, so that no trial keeps the base defect.  A chunk the set cannot
    make is left out."""
    slots = len(base)
    values = base.reshape(-1, d)
    chunks = [[], [(0, p) for p in range(3)]]
    mixed = np.flatnonzero(values.min(axis=1) < values.max(axis=1))
    if len(mixed):  # a 0 and a 1 flipped leave the context's count of ones
        c = mixed[0]
        chunks.append([(0, c * d + values[c].argmin()), (0, c * d + values[c].argmax())])
    if len(left):
        chunks += [[(0, left[0]), (0, right[0])], [(0, left[0]), (n - 1, right[0])]]
        # a slot that is the right end of k connections has k slots before it on its ray
        top = np.bincount(right, minlength=slots).argmax()
        ray = [*left[right == top], top]
        if len(ray) >= 3:
            chunks.append([(n - 1, s) for s in ray])
        if left[-1] not in [left[0], *right[left == left[0]]]:  # not on the first ray
            chunks.append([(0, left[0]), (0, right[0]), (0, left[-1]), (0, right[-1])])
    lone = np.flatnonzero(np.bincount(np.concatenate((left, right)), minlength=slots) == 0)
    if len(lone):
        chunks.append([(0, lone[0]), (0, (lone[0] + d) % slots)])
    chunks.append([(t, t % slots) for t in range(n)] + [(0, d % slots)])
    return [np.array(sorted({t * slots + s for t, s in c}), dtype=np.int64) for c in chunks]


@pytest.mark.parametrize("rate", [0.0, 1e-3, "r*", 0.1, 0.5, 1.0, "hand"])
@pytest.mark.parametrize(
    "case", ["cabello18", "kp36", "two_triads", "fan50", "random:cabello18", "random:fan50"]
)
def test_kernels_agree_on_the_same_flips(case, rate, request):
    # the two chunk counters must give equal partial counters from the same
    # flip_offsets chunks, whichever one simulate_model would pick; "hand"
    # gives them hand_built_chunks instead
    model = case_model(case, 0.0 if rate == "hand" else rate, 5, request)
    layout = sim._slot_layout(model)
    slots, d, trials = len(layout[0]), model.ks_set.dimension, 60
    for rows in (1, 7, 8, 9, sim.CHUNK_SLOTS // slots):
        sparse = sim._sparse_kernel(*layout, d, rows)
        dense = sim._dense_kernel(*layout, d, rows)
        if rate == "hand":
            chunks = [(q, rows) for q in hand_built_chunks(*layout, d, rows)]
        else:  # each chunk is counted before the stream reuses its buffer
            stream = flip_offsets(5, model.flip_rate, trials * slots, rows * slots)
            chunks = ((q, min(rows, trials - t)) for t, q in zip(range(0, trials, rows), stream))
        for i, (q, n) in enumerate(chunks):
            got, want = dense(q, n), sparse(q, n)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (rows, i)


@pytest.mark.parametrize("name", ["cabello18", "kernaghan20", "kp36", "fan50"])
def test_slot_layout_lists_connections_in_all_pairs_order(name, request):
    # the order of connection_mismatch_counts, and so of delta_hat, is the
    # all-pairs order: rays in declaration order, context pairs lexicographic
    ks = request.getfixturevalue(name)
    base, left, right = sim._slot_layout(TrialModel(ks, default_base(ks), 0.1, seed=0))
    want = connection_slots(ks)
    assert left.tolist() == [a for a, _ in want] and right.tolist() == [b for _, b in want]
    assert len(base) == len(ks.contexts) * ks.dimension


@pytest.mark.parametrize("name", ["cabello18", "kernaghan20", "kp36", "fan50"])
def test_ray_ranks_give_each_pair_its_connection(name, request):
    # the sparse kernel finds the connection of two flips on one ray from
    # their slots' ranks: every pair of a ray's slots must land on its own
    # (left, right) entry; kp36 carries an m-override, which the layout ignores
    ks = request.getfixturevalue(name)
    base, left, right = sim._slot_layout(TrialModel(ks, default_base(ks), 0.1, seed=0))
    rank, root, to_conn = sim._ray_ranks(left, right, len(base))
    held = {v.id: [] for v in ks.vectors}
    for ci, ctx in enumerate(ks.contexts):
        for p, vid in enumerate(ctx.vector_ids):
            held[vid].append(ci * ks.dimension + p)
    seen = []
    for at in held.values():
        assert [rank[s] for s in at] == list(range(len(at)))
        assert all(root[s] == at[0] for s in at)
        for a, b in combinations(at, 2):
            c = to_conn[a] + rank[b]
            assert (left[c], right[c]) == (a, b)
            seen.append(c)
    assert sorted(seen) == list(range(len(left)))


def test_kernel_rule_is_sparse_at_r_star_and_dense_at_0_1(catalog_sets):
    for ks in catalog_sets:
        st = build_stats(ks)
        slots = st.N * ks.dimension
        r_star = critical_rate(st.N, st.M, ks.dimension).r
        assert not sim._dense_wins(r_star, slots, st.m_all_pairs), ks.name
        assert sim._dense_wins(0.1, slots, st.m_all_pairs), ks.name
    # many connections per slot keep a set sparse: the 1000-triad fan at any rate
    assert not sim._dense_wins(1.0, 3 * 1000, 1000 * 999 // 2)


def test_zero_rate_repeats_the_base_defect(kp36, monkeypatch):
    # r = 0 flips nothing and r = 1 flips every slot: each trial repeats the
    # base, or its complement, whose connections still all agree
    set_chunk_rows(monkeypatch, kp36, 7)
    rng = random.Random(4)
    for _ in range(5):
        base = {v.id: rng.randint(0, 1) for v in kp36.vectors}
        for flip in (0, 1):
            broken = [
                int(sum(base[v] ^ flip for v in ctx.vector_ids) != kp36.dimension - 1)
                for ctx in kp36.contexts
            ]
            model = TrialModel(kp36, base, float(flip), seed=1)
            summary = simulate_model(model, 250)
            assert summary.context_error_counts == tuple(250 * b for b in broken), flip
            assert set(summary.connection_mismatch_counts) == {0}
            assert summary.total_defect == 250 * sum(broken)
            assert summary.min_trial_defect == sum(broken)


def test_trials_after_the_stream_ends_are_counted_at_once(kp36):
    # at r = 0 the stream ends within the first chunk, so 10^15 trials cost
    # one chunk and one trial without flips, and repeat the base exactly
    model = TrialModel(kp36, default_base(kp36), 0.0, seed=3)
    one = simulate_model(model, 1)
    trials = 10**15
    many = simulate_model(model, trials)
    assert many.context_error_counts == tuple(trials * c for c in one.context_error_counts)
    assert many.connection_mismatch_counts == tuple(
        trials * c for c in one.connection_mismatch_counts
    )
    assert many.total_defect == trials * one.total_defect
    assert many.min_trial_defect == one.min_trial_defect >= 1


@pytest.mark.parametrize("seed", range(6))
def test_stream_ending_mid_run_matches_dense_reference(kp36, seed, monkeypatch):
    # at most one flip in 99,000 trial-slots: for seeds 0, 1 and 4 the stream
    # ends after a flip in chunk 5, 327 or 1 of 429, and the rest is counted at once
    model = TrialModel(kp36, default_base(kp36), 5e-6, seed)
    expect = dense_reference(model, 3000)
    set_chunk_rows(monkeypatch, kp36, 7)
    assert simulate_model(model, 3000) == expect


def test_defect_monotone_in_noise(kernaghan20):
    base = default_base(kernaghan20)
    low = simulate_model(TrialModel(kernaghan20, base, 0.01, seed=8), 50_000)
    high = simulate_model(TrialModel(kernaghan20, base, 0.1, seed=8), 50_000)
    assert high.mean_total_defect > low.mean_total_defect


def test_json_payload_schema(cabello18):
    base = default_base(cabello18)
    summary = simulate_model(TrialModel(cabello18, base, 0.1, seed=6), 1000)
    doc = summary.to_json_dict()
    assert list(doc) == [
        "seed", "stream", "trials", "r", "delta_hat", "epsilon_hat", "mean_defect"
    ]
    assert doc["stream"] == "philox-geometric"
    assert doc["seed"] == 6 and doc["trials"] == 1000 and doc["r"] == 0.1
    assert len(doc["delta_hat"]) == 18
    assert len(doc["epsilon_hat"]) == 9


# --- the empirical inequality -----------------------------------------------------


def test_inequality_check_requires_verification(triad):
    summary = simulate_model(TrialModel(triad, default_base(triad), 0.1, seed=1), 100)
    with pytest.raises(ValueError, match="KS-uncolorable set, got d_min 0"):
        empirical_inequality_check(summary, min_defect(triad))


def test_inequality_check_reports(cabello18):
    base = default_base(cabello18)
    summary = simulate_model(TrialModel(cabello18, base, 0.0142, seed=1), 10_000)
    st = build_stats(cabello18)
    verdict = empirical_inequality_check(summary, min_defect(cabello18))
    assert verdict.holds
    assert verdict.min_trial_defect >= 1
    assert verdict.mean_total_defect >= 1
    assert verdict.implied_lhs == pytest.approx(
        st.m_all_pairs * verdict.delta_hat_max + st.N * verdict.epsilon_hat_max
    )
    assert verdict.implied_lhs >= 1


def test_inequality_check_counts_all_pairs_not_the_override(kp36):
    summary = simulate_model(TrialModel(kp36, default_base(kp36), 0.01, seed=3), 1000)
    verdict = empirical_inequality_check(summary, min_defect(kp36))
    st = build_stats(kp36)
    assert (st.M, st.m_all_pairs) == (72, 76)
    assert verdict.implied_lhs == 76 * verdict.delta_hat_max + 11 * verdict.epsilon_hat_max


def test_default_base_on_colorable_set(triad):
    base = default_base(triad)
    assert sum(base.values()) == 2  # a satisfying coloring of one triad
    summary = simulate_model(TrialModel(triad, base, 0.0, seed=0), 50)
    assert summary.total_defect == 0


def test_default_base_on_ks_set_is_min_defect(catalog_sets):
    for ks in catalog_sets:
        base = default_base(ks)
        slot = {
            (ci, p): base[vid]
            for ci, ctx in enumerate(ks.contexts)
            for p, vid in enumerate(ctx.vector_ids)
        }
        s, c = kb.assignment_defect(ks, slot)
        assert c == 0  # vector-level base never disagrees with itself
        assert s == 1  # and achieves the minimum defect
