"""Seeded Monte Carlo validation of the independent-error model.

All randomness comes from a counter-based Philox stream keyed by the 64-bit
seed.  Flips are drawn as one logical row-major matrix over (trial, slot),
so results are bit-identical across platforms, chunk sizes, and schedules;
accumulation uses exact integer counters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .coloring import DefectReport, min_defect
from .model import KsSet, SetStats, build_stats

DEFAULT_CHUNK_ROWS = 1 << 16


def _stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _three_sigma(successes: int, trials: int) -> float:
    p = successes / trials
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


@dataclass(frozen=True)
class PairSimResult:
    """Agreement of one shared result measured in two contexts."""

    r: float
    trials: int
    seed: int
    agreements: int

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.trials

    @property
    def expected(self) -> float:
        return (1 - self.r) ** 2 + self.r**2

    @property
    def halfwidth3(self) -> float:
        return _three_sigma(self.agreements, self.trials)


def simulate_pair(r: float, trials: int, seed: int, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> PairSimResult:
    """Empirical agreement rate of a value copied into two slots and flipped
    independently at rate r in each."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = _stream(seed)
    agreements = 0
    done = 0
    while done < trials:
        m = min(chunk_rows, trials - done)
        flips = gen.random((m, 2)) < r
        agreements += int(np.count_nonzero(flips[:, 0] == flips[:, 1]))
        done += m
    return PairSimResult(r=r, trials=trials, seed=seed, agreements=agreements)


@dataclass(frozen=True)
class ContextSimResult:
    """Survival of the exactly-one-zero pattern in one d-slot context."""

    r: float
    d: int
    trials: int
    seed: int
    successes: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def expected(self) -> float:
        t = 1 - self.r
        return t**self.d + (self.d - 1) * t ** (self.d - 2) * self.r**2

    @property
    def halfwidth3(self) -> float:
        return _three_sigma(self.successes, self.trials)


def simulate_context(
    r: float, d: int, trials: int, seed: int, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> ContextSimResult:
    """Empirical probability that a valid context pattern keeps sum d-1 after
    d independent flips at rate r."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if d < 3:
        raise ValueError(f"dimension must be >= 3, got {d}")
    gen = _stream(seed)
    base = np.zeros(d, dtype=bool)
    base[1:] = True  # one zero, d-1 ones
    successes = 0
    done = 0
    while done < trials:
        m = min(chunk_rows, trials - done)
        flips = gen.random((m, d)) < r
        values = flips ^ base
        successes += int(np.count_nonzero(values.sum(axis=1) == d - 1))
        done += m
    return ContextSimResult(r=r, d=d, trials=trials, seed=seed, successes=successes)


@dataclass(frozen=True)
class TrialModel:
    """A hypothetical non-contextual value table plus independent slot noise.

    ``base`` assigns an error-free 0/1 value to every vector id; each trial
    flips every (context, position) slot independently with probability
    ``flip_rate``.  On a KS set no base satisfies everything, so base sum
    defects mix with flip noise in the measured rates -- that mixing is the
    point of the exercise.
    """

    ks_set: KsSet
    base: Mapping[str, int]
    flip_rate: float
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.flip_rate <= 1:
            raise ValueError(f"flip rate must lie in [0, 1], got {self.flip_rate}")
        for v in self.ks_set.vectors:
            if self.base.get(v.id) not in (0, 1):
                raise ValueError(f"base assignment must give 0/1 to vector {v.id!r}")


@dataclass(frozen=True)
class SimSummary:
    """Exact counters of one simulation run; all rates derive from them."""

    seed: int
    trials: int
    r: float
    context_error_counts: tuple[int, ...]
    connection_mismatch_counts: tuple[int, ...]
    total_defect: int
    min_trial_defect: int

    @property
    def epsilon_hat(self) -> tuple[float, ...]:
        return tuple(c / self.trials for c in self.context_error_counts)

    @property
    def delta_hat(self) -> tuple[float, ...]:
        return tuple(c / self.trials for c in self.connection_mismatch_counts)

    @property
    def mean_total_defect(self) -> float:
        return self.total_defect / self.trials

    @property
    def epsilon_halfwidth3(self) -> tuple[float, ...]:
        return tuple(_three_sigma(c, self.trials) for c in self.context_error_counts)

    @property
    def delta_halfwidth3(self) -> tuple[float, ...]:
        return tuple(_three_sigma(c, self.trials) for c in self.connection_mismatch_counts)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "r": self.r,
            "delta_hat": list(self.delta_hat),
            "epsilon_hat": list(self.epsilon_hat),
            "mean_defect": self.mean_total_defect,
        }


def simulate_model(
    model: TrialModel, trials: int, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> SimSummary:
    """Run the trial model, counting every violated constraint per trial.

    Per trial: flip each of the N*d slots of the base table independently
    with probability r, then count contexts whose slot sum differs from d-1
    and connections (all-pairs list from build_stats) whose two slots
    disagree.  Reproducible bit-for-bit from (seed, trials) alone.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ks = model.ks_set
    stats = build_stats(ks)
    d = ks.dimension
    n_ctx = len(ks.contexts)
    slots = n_ctx * d

    base = np.array(
        [model.base[vid] for ctx in ks.contexts for vid in ctx.vector_ids], dtype=bool
    )
    pos_in_ctx = [{vid: p for p, vid in enumerate(ctx.vector_ids)} for ctx in ks.contexts]
    left = np.array(
        [a * d + pos_in_ctx[a][vid] for vid, (a, b) in stats.connections], dtype=np.intp
    )
    right = np.array(
        [b * d + pos_in_ctx[b][vid] for vid, (a, b) in stats.connections], dtype=np.intp
    )

    ctx_errors = np.zeros(n_ctx, dtype=np.int64)
    conn_mismatches = np.zeros(len(stats.connections), dtype=np.int64)
    total_defect = 0
    min_trial = slots + len(stats.connections) + 1

    gen = _stream(model.seed)
    done = 0
    while done < trials:
        m = min(chunk_rows, trials - done)
        flips = gen.random((m, slots)) < model.flip_rate
        values = flips ^ base
        bad_ctx = values.reshape(m, n_ctx, d).sum(axis=2) != d - 1
        mism = values[:, left] != values[:, right]
        ctx_errors += bad_ctx.sum(axis=0)
        conn_mismatches += mism.sum(axis=0)
        per_trial = bad_ctx.sum(axis=1) + mism.sum(axis=1)
        total_defect += int(per_trial.sum())
        min_trial = min(min_trial, int(per_trial.min()))
        done += m
    return SimSummary(
        seed=model.seed,
        trials=trials,
        r=model.flip_rate,
        context_error_counts=tuple(int(c) for c in ctx_errors),
        connection_mismatch_counts=tuple(int(c) for c in conn_mismatches),
        total_defect=total_defect,
        min_trial_defect=min_trial,
    )


@dataclass(frozen=True)
class InequalityVerdict:
    """Empirical restatement of the defect floor on a verified KS set."""

    holds: bool
    mean_total_defect: float
    min_trial_defect: int
    delta_hat_max: float
    epsilon_hat_max: float
    implied_lhs: float  # M_all_pairs * delta_hat_max + N * epsilon_hat_max


def empirical_inequality_check(
    summary: SimSummary, stats: SetStats, verified_uncolorable: bool
) -> InequalityVerdict:
    """Assert the simulated defect floor of an uncolorable set.

    Requires the caller to have *verified* uncolorability (the verdict is
    undefined otherwise, so a colorable or unchecked set is refused).  For a
    KS set every single trial violates at least one of the constraints, so
    the per-trial minimum (and with it the mean total defect) must be >= 1;
    also reports the worst per-event rates and the union-bound form
    M*max(delta_hat) + N*max(epsilon_hat) >= 1 they imply (using the
    all-pairs connection count, never an override).
    """
    if not verified_uncolorable:
        raise ValueError("inequality check requires a set verified KS-uncolorable")
    delta_max = max(summary.delta_hat, default=0.0)
    epsilon_max = max(summary.epsilon_hat, default=0.0)
    implied = stats.m_all_pairs * delta_max + stats.N * epsilon_max
    holds = summary.min_trial_defect >= 1
    return InequalityVerdict(
        holds=holds,
        mean_total_defect=summary.mean_total_defect,
        min_trial_defect=summary.min_trial_defect,
        delta_hat_max=delta_max,
        epsilon_hat_max=epsilon_max,
        implied_lhs=implied,
    )


def default_base(ks: KsSet, report: Optional[DefectReport] = None) -> dict[str, int]:
    """A defect-optimal non-contextual base: the per-vector values of a
    min_defect witness (majority over the vector's slots, ones winning ties).

    A d_min == 0 witness is a satisfying coloring, so its base is that
    coloring.  Pass ``report`` when the caller already holds
    ``min_defect(ks)``; the set is then not searched again.
    """
    if report is None:
        report = min_defect(ks)
    votes: dict[str, list[int]] = {v.id: [] for v in ks.vectors}
    for ci, ctx in enumerate(ks.contexts):
        for p, vid in enumerate(ctx.vector_ids):
            votes[vid].append(report.witness[(ci, p)])
    return {
        vid: (1 if not vals or sum(vals) * 2 >= len(vals) else 0)
        for vid, vals in votes.items()
    }
