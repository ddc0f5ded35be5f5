"""Seeded Monte Carlo: analytic agreement, determinism, defect floor."""
import math
import random

import numpy as np
import pytest

import ksbound as kb
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
    simulate_context,
    simulate_model,
    simulate_pair,
)
from ksbound.simulate import DEFAULT_CHUNK_ROWS


def three_sigma(p, trials):
    return 3 * math.sqrt(p * (1 - p) / trials)


# --- pair and context simulators ----------------------------------------------


def test_pair_no_errors():
    res = simulate_pair(0.0, 10_000, seed=1)
    assert res.agreement_rate == 1.0
    assert res.expected == 1.0


def test_pair_all_flip():
    # at r=1 both copies always flip, so they still agree
    res = simulate_pair(1.0, 10_000, seed=1)
    assert res.agreement_rate == 1.0


def test_pair_symmetric_rate():
    res = simulate_pair(0.5, 1_000_000, seed=42)
    assert abs(res.agreement_rate - 0.5) <= three_sigma(0.5, res.trials)


def test_pair_matches_delta_analytic():
    res = simulate_pair(0.1, 1_000_000, seed=3)
    assert res.expected == pytest.approx(0.82)
    assert res.expected == pytest.approx(1 - delta_analytic(0.1))
    assert abs(res.agreement_rate - 0.82) <= three_sigma(0.82, res.trials)
    assert res.halfwidth3 > 0


def test_context_no_errors():
    res = simulate_context(0.0, 4, 10_000, seed=1)
    assert res.success_rate == 1.0


def test_context_all_flip_d3():
    res = simulate_context(1.0, 3, 10_000, seed=1)
    assert res.success_rate == 0.0
    assert res.expected == 0.0


def test_context_matches_epsilon_analytic():
    res = simulate_context(0.1, 3, 1_000_000, seed=9)
    assert res.expected == pytest.approx(0.747)
    assert res.expected == pytest.approx(1 - epsilon_analytic(0.1, 3))
    assert abs(res.success_rate - 0.747) <= three_sigma(0.747, res.trials)


def test_simulator_input_validation():
    with pytest.raises(ValueError):
        simulate_pair(0.1, 0, seed=1)
    with pytest.raises(ValueError):
        simulate_context(0.1, 2, 100, seed=1)


def test_pair_determinism_and_chunk_invariance():
    a = simulate_pair(0.3, 50_000, seed=77)
    b = simulate_pair(0.3, 50_000, seed=77)
    c = simulate_pair(0.3, 50_000, seed=77, chunk_rows=997)
    assert a == b == c
    assert a != simulate_pair(0.3, 50_000, seed=78)


def test_context_chunk_invariance():
    a = simulate_context(0.2, 5, 30_000, seed=5)
    b = simulate_context(0.2, 5, 30_000, seed=5, chunk_rows=123)
    assert a == b


# --- full model simulation -------------------------------------------------------


def test_model_validation(triad):
    with pytest.raises(ValueError, match="flip rate"):
        TrialModel(ks_set=triad, base={"a": 0, "b": 1, "c": 1}, flip_rate=1.5, seed=0)
    with pytest.raises(ValueError, match="base assignment"):
        TrialModel(ks_set=triad, base={"a": 0, "b": 1}, flip_rate=0.1, seed=0)
    with pytest.raises(ValueError, match="base assignment"):
        TrialModel(ks_set=triad, base={"a": 0, "b": 1, "c": 2}, flip_rate=0.1, seed=0)


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


def test_model_determinism_and_chunk_invariance(kernaghan20):
    base = default_base(kernaghan20)
    model = TrialModel(kernaghan20, base, 0.1, seed=31)
    a = simulate_model(model, 10_000)
    b = simulate_model(model, 10_000)
    c = simulate_model(model, 10_000, chunk_rows=333)
    assert a == b == c


def dense_reference(model, trials):
    """The counters of ``simulate_model`` from the whole (trial, slot) flip
    matrix: the same geometric gaps, evaluated densely."""
    ks, r = model.ks_set, model.flip_rate
    st = build_stats(ks)
    d, n_ctx = ks.dimension, len(ks.contexts)
    slots = n_ctx * d
    flips = np.zeros(trials * slots, dtype=bool)
    if r > 0:
        gaps = np.random.Generator(np.random.Philox(key=model.seed)).geometric(r, trials * slots)
        pos = np.cumsum(gaps) - 1
        flips[pos[pos < trials * slots]] = True
    base = np.array([model.base[v] for ctx in ks.contexts for v in ctx.vector_ids], dtype=bool)
    at = [{v: p for p, v in enumerate(ctx.vector_ids)} for ctx in ks.contexts]
    left = [a * d + at[a][v] for v, (a, b) in st.connections]
    right = [b * d + at[b][v] for v, (a, b) in st.connections]
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


@pytest.mark.parametrize("rate", [1e-3, "r*", 0.1, 0.5, 1.0])
@pytest.mark.parametrize(
    "case", ["cabello18", "kernaghan20", "kp36", "two_triads", "random:cabello18", "random:kp36"]
)
def test_model_matches_dense_reference(case, rate, request):
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
    model = TrialModel(ks, base, rate, seed=2024)
    expect = dense_reference(model, 700)
    for chunk_rows in (1, 333, DEFAULT_CHUNK_ROWS):
        assert simulate_model(model, 700, chunk_rows=chunk_rows) == expect, chunk_rows


def test_zero_rate_repeats_the_base_defect(kp36):
    rng = random.Random(4)
    for _ in range(5):
        base = {v.id: rng.randint(0, 1) for v in kp36.vectors}
        broken = [
            int(sum(base[v] for v in ctx.vector_ids) != kp36.dimension - 1)
            for ctx in kp36.contexts
        ]
        summary = simulate_model(TrialModel(kp36, base, 0.0, seed=1), 250, chunk_rows=7)
        assert summary.context_error_counts == tuple(250 * b for b in broken)
        assert set(summary.connection_mismatch_counts) == {0}
        assert summary.total_defect == 250 * sum(broken)
        assert summary.min_trial_defect == sum(broken)


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


def test_inequality_check_requires_verification(cabello18):
    base = default_base(cabello18)
    summary = simulate_model(TrialModel(cabello18, base, 0.1, seed=1), 100)
    st = build_stats(cabello18)
    with pytest.raises(ValueError, match="verified"):
        empirical_inequality_check(summary, st, verified_uncolorable=False)


def test_inequality_check_reports(cabello18):
    base = default_base(cabello18)
    summary = simulate_model(TrialModel(cabello18, base, 0.0142, seed=1), 10_000)
    st = build_stats(cabello18)
    verdict = empirical_inequality_check(summary, st, verified_uncolorable=True)
    assert verdict.holds
    assert verdict.min_trial_defect >= 1
    assert verdict.mean_total_defect >= 1
    assert verdict.implied_lhs == pytest.approx(
        st.m_all_pairs * verdict.delta_hat_max + st.N * verdict.epsilon_hat_max
    )
    assert verdict.implied_lhs >= 1


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
