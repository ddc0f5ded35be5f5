"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the same condition, so the suite both documents
and enforces the contract:

1. published six-row table reproduced (4-decimal floors + crossing accuracy)
2. catalog integrity: parameters, validation, uncolorability, dual engines
3. algebraic identity between the error model and the inequality margin
4. delta floor boundary values exact at epsilon = 0 and epsilon = 1/N
5. Monte Carlo matches the analytic rates; bit-identical reruns
6. per-trial defect floor >= 1 on every bundled KS set, every single trial
7. format round-trips; mutated documents are never silently accepted
"""
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import ksbound as kb
from conftest import brute_force_coloring

PUBLISHED_ROWS = {
    "cabello18": dict(d=4, n=18, N=9, M=18),
    "kernaghan20": dict(d=4, n=20, N=11, M=30),
    "kernaghan-peres36": dict(d=8, n=36, N=11, M=72),
}
PUBLISHED_FLOORS = [0.0032, 0.0034, 0.0035, 0.0043, 0.0097, 0.0142]

# true crossings of g(r) = 1, frozen from exact-rational bisection (2^-120)
TRUE_CROSSINGS = [
    0.0032181272018268737,
    0.003427670255120685,
    0.003562009359497873,
    0.004353174034271855,
    0.009760040515158398,
    0.01421361344423254,
]


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    rep = kb.table_report()
    elapsed = time.perf_counter() - t0
    floors = [crit.floor4 for _, crit in rep]
    errors = [abs(crit.r - ref) for (_, crit), ref in zip(rep, TRUE_CROSSINGS)]
    ok = floors == PUBLISHED_FLOORS and max(errors) <= 5e-5 and elapsed < 1.0
    report(
        1,
        ok,
        f"floors {floors}, max |r - r_table| = {max(errors):.2e}, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_catalog_integrity():
    t0 = time.perf_counter()
    details = []
    ok = True
    for name, want in PUBLISHED_ROWS.items():
        ks = kb.load_catalog(name)
        st = kb.build_stats(ks)
        valid = kb.validate_orthogonality(ks).ok
        params_ok = (ks.dimension, st.n, st.N, st.M) == (
            want["d"], want["n"], want["N"], want["M"],
        )
        back = kb.find_coloring(ks)
        uncolorable = not back.satisfiable
        if st.n <= 20:
            brute = brute_force_coloring(ks)
            engines_agree = brute.satisfiable == back.satisfiable
        else:
            engines_agree = True  # beyond the 2^n oracle's contract
        ok = ok and valid and params_ok and uncolorable and engines_agree
        details.append(f"{name}: valid={valid} params={params_ok} KS={uncolorable}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(2, ok, "; ".join(details) + f"; {elapsed:.1f} s")


def test_criterion_3_algebraic_identity():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    sign_mismatches = 0
    for _ in range(10_000):
        r = float(rng.uniform(0, 1))
        d = int(rng.integers(3, 11))
        N = int(rng.integers(1, 101))
        M = int(rng.integers(1, 101))
        g = kb.independent_error_lhs(r, N, M, d)
        parts = M * kb.delta_analytic(r) + N * kb.epsilon_analytic(r, d)
        worst = max(worst, abs(g - parts))
        margin = kb.inequality_margin(
            M, N, kb.delta_analytic(r), kb.epsilon_analytic(r, d)
        )
        if (margin > 0) != (g < 1):
            sign_mismatches += 1
    ok = worst <= 1e-12 and sign_mismatches == 0
    report(3, ok, f"10^4 samples, max identity error {worst:.1e}, "
                  f"{sign_mismatches} sign mismatches")


def test_criterion_4_delta_floor_boundaries():
    ok = True
    details = []
    for name in kb.list_catalog():
        st = kb.build_stats(kb.load_catalog(name))
        at_zero = kb.delta_lower_bound(st.N, st.M, 0)
        exact_zero = at_zero == Fraction(1, st.M) and at_zero != 0
        exact_inv = kb.delta_lower_bound(st.N, st.M, Fraction(1, st.N)) == 0
        float_ok = kb.delta_lower_bound(st.N, st.M, 1.0 / st.N) == 0
        ok = ok and exact_zero and exact_inv and float_ok
        details.append(f"{name}: 1/M={exact_zero} vacuous={exact_inv and float_ok}")
    report(4, ok, "; ".join(details))


def test_criterion_5_monte_carlo_vs_analytic():
    # one connection (two triads sharing ray a) and one context (a lone
    # triad), each on simulate_model from a satisfying base
    trials = 1_000_000
    vecs = [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1)),
            ("d", (0, 1, 1)), ("e", (0, 1, -1))]
    two_triads = kb.make_set("two-triads", 3, vecs, [("a", "b", "c"), ("a", "d", "e")])
    triad = kb.make_set("triad", 3, vecs[:3], [("a", "b", "c")])

    def run(ks, seed):
        base = kb.find_coloring(ks).assignment
        return kb.simulate_model(kb.TrialModel(ks, base, 0.1, seed=seed), trials)

    pair, pair_again = run(two_triads, 1202), run(two_triads, 1202)
    agreement = 1 - pair.delta_hat[0]
    sigma_pair = (0.82 * 0.18 / trials) ** 0.5
    pair_ok = abs(agreement - 0.82) <= 3 * sigma_pair

    ctx, ctx_again = run(triad, 1307), run(triad, 1307)
    survival = 1 - ctx.epsilon_hat[0]
    sigma_ctx = (0.747 * 0.253 / trials) ** 0.5
    ctx_ok = abs(survival - 0.747) <= 3 * sigma_ctx

    deterministic = pair == pair_again and ctx == ctx_again
    ok = pair_ok and ctx_ok and deterministic
    report(
        5,
        ok,
        f"pair {agreement:.5f} (|err| <= {3 * sigma_pair:.5f}: {pair_ok}), "
        f"context {survival:.5f} (|err| <= {3 * sigma_ctx:.5f}: {ctx_ok}), "
        f"bit-identical reruns: {deterministic}",
    )


def test_criterion_6_defect_floor():
    seeds = range(100)
    n_bases = 10
    rates = (0.0, 0.0142, 0.1)
    trials = 25
    ok = True
    details = []
    for name in kb.list_catalog():
        ks = kb.load_catalog(name)
        base_rng = random.Random(sum(name.encode()))
        bases = [
            {v.id: base_rng.randint(0, 1) for v in ks.vectors} for _ in range(n_bases)
        ]
        floor = None
        runs = 0
        for r in rates:
            for base in bases:
                for seed in seeds:
                    s = kb.simulate_model(
                        kb.TrialModel(ks, base, r, seed=seed), trials
                    )
                    floor = s.min_trial_defect if floor is None else min(floor, s.min_trial_defect)
                    runs += 1
        rep = kb.min_defect(ks)
        witness_ok = sum(kb.assignment_defect(ks, rep.witness)) == rep.d_min
        set_ok = floor >= 1 and rep.d_min >= 1 and witness_ok
        ok = ok and set_ok
        details.append(f"{name}: {runs} runs x {trials} trials, floor {floor}, d_min {rep.d_min}")
    # colorable controls
    triad = kb.make_set(
        "triad", 3,
        [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1))],
        [("a", "b", "c")],
    )
    pair_of_triads = kb.make_set(
        "pair", 3,
        [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1)),
         ("d", (0, 1, 1)), ("e", (0, 1, -1))],
        [("a", "b", "c"), ("a", "d", "e")],
    )
    controls_ok = all(kb.min_defect(s).d_min == 0 for s in (triad, pair_of_triads))
    ok = ok and controls_ok
    report(6, ok, "; ".join(details) + f"; colorable controls d_min=0: {controls_ok}")


def _mutate_tokens(lines, rng):
    """One random single-token edit that actually changes the code tokens."""
    while True:
        mutated = list(lines)
        candidates = [
            i for i, ln in enumerate(mutated) if ln.split("#", 1)[0].split()
        ]
        i = rng.choice(candidates)
        tokens = mutated[i].split("#", 1)[0].split()
        before = list(tokens)
        j = rng.randrange(len(tokens))
        action = rng.choice(("replace", "delete", "duplicate", "insert"))
        junk = rng.choice(
            ["0", "1", "-1", "2", "99", "x9", "v1", "1/0", "1:1", "1.5", "vec",
             "ctx", "dim", "q!", ""]
        )
        if action == "replace":
            tokens[j] = junk
        elif action == "delete":
            del tokens[j]
        elif action == "duplicate":
            tokens.insert(j, tokens[j])
        else:
            tokens.insert(j, junk)
        tokens = [t for t in tokens if t]
        if tokens != before:
            mutated[i] = " ".join(tokens)
            return "\n".join(mutated) + "\n"


def test_criterion_7_format_round_trip_and_mutations():
    # round-trip: parse . serialize is the identity up to whitespace/comments
    round_trip_ok = True
    for name in kb.list_catalog():
        src = kb.catalog_text(name)
        ks = kb.parse_document(src).ks_set
        again = kb.parse_document(kb.serialize_set(ks)).ks_set
        src_tokens = [
            ln.split("#", 1)[0].split()
            for ln in src.splitlines()
            if ln.split("#", 1)[0].strip()
        ]
        ser_tokens = [ln.split() for ln in kb.serialize_set(ks).splitlines()]
        round_trip_ok = round_trip_ok and again == ks and src_tokens == ser_tokens

    rng = random.Random(424242)
    texts = [kb.catalog_text(name) for name in kb.list_catalog()]
    rejected = accepted = bad = 0
    for k in range(1000):
        base_lines = rng.choice(texts).splitlines()
        mutated = _mutate_tokens(base_lines, rng)
        try:
            ks = kb.parse_document(mutated).ks_set
        except kb.ParseError as exc:
            rejected += 1
            if not (isinstance(exc.line, int) and exc.line >= 1
                    and f"at line {exc.line}" in str(exc)):
                bad += 1
            continue
        # accepted: must be a fully valid set, never a silently wrong one
        accepted += 1
        st = kb.build_stats(ks)
        if not (
            kb.validate_orthogonality(ks).ok
            and sum(st.multiplicities.values()) == st.N * ks.dimension
            and all(len(v.components) == ks.dimension for v in ks.vectors)
            and all(len(c.vector_ids) == ks.dimension for c in ks.contexts)
        ):
            bad += 1
    ok = round_trip_ok and bad == 0
    report(
        7,
        ok,
        f"round-trip ok: {round_trip_ok}; 1000 mutations -> {rejected} rejected "
        f"with line numbers, {accepted} still-valid, {bad} silently wrong",
    )
