"""Seeded Monte Carlo validation of the independent-error model.

All randomness comes from a counter-based Philox stream keyed by the 64-bit
seed, and every count is an exact integer.  ``simulate_model`` draws only
where flips land: one stream of geometric gaps over the row-major
(trial, slot) index of the whole run (the ``philox-geometric`` stream), and
it re-counts only the contexts and connections those flips touch.
``simulate_pair`` and ``simulate_context`` draw one uniform per slot.
Results are reproducible across runs and chunk sizes.  numpy's geometric
sampler calls ``log``, so bit-identity across platforms rests on their libm
agreeing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

import numpy as np

from .coloring import DefectReport, min_defect
from .model import KsSet, SetStats, build_stats

DEFAULT_CHUNK_ROWS = 1 << 16
#: ``simulate_model`` holds at most this many trial-slots per chunk.
CHUNK_SLOTS = 1 << 20


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
            "stream": "philox-geometric",
            "trials": self.trials,
            "r": self.r,
            "delta_hat": list(self.delta_hat),
            "epsilon_hat": list(self.epsilon_hat),
            "mean_defect": self.mean_total_defect,
        }


def _flip_offsets(seed: int, r: float, total: int, width: int) -> Iterator[np.ndarray]:
    """The flipped positions of a run of ``total`` slots, one chunk of
    ``width`` positions at a time, each as sorted offsets from the chunk start.

    One Philox(key=seed) stream of geometric(r) gaps places flip k at
    p_k = p_{k-1} + g_k with p_0 = -1.  Positions drawn past a chunk's end
    carry into the next chunk, so the flips do not depend on ``width``.
    """
    gen = _stream(seed)
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


def simulate_model(
    model: TrialModel, trials: int, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> SimSummary:
    """Run the trial model, counting every violated constraint per trial.

    Per trial: flip each of the N*d slots of the base table independently
    with probability r, then count contexts whose slot sum differs from d-1
    and connections (all-pairs list from build_stats) whose two slots
    disagree.

    Only the flips are drawn (see ``_flip_offsets``) and only what they
    touch is re-counted, starting from the base defect: the base is a
    per-vector assignment, so every connection agrees before noise, and a
    connection mismatches exactly when one of its two slots flipped.
    A chunk holds at most ``chunk_rows`` trials and, beyond one trial, at
    most CHUNK_SLOTS trial-slots.
    The counters are exact integers and reproducible from (seed, trials)
    alone, whatever the chunk size.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ks = model.ks_set
    stats = build_stats(ks)
    d = ks.dimension
    n_ctx = len(ks.contexts)
    slots = n_ctx * d
    if trials * slots >= 2**63:
        raise ValueError(f"trials * slots must be < 2^63, got {trials} * {slots}")
    n_conn = len(stats.connections)

    base = np.array(
        [model.base[vid] for ctx in ks.contexts for vid in ctx.vector_ids], dtype=np.int64
    )
    at = [{vid: p for p, vid in enumerate(ctx.vector_ids)} for ctx in ks.contexts]
    conn_slots = [(a * d + at[a][vid], b * d + at[b][vid]) for vid, (a, b) in stats.connections]
    left, right = np.array(conn_slots, dtype=np.intp).reshape(-1, 2).T
    base_ones = base.reshape(n_ctx, d).sum(axis=1)
    base_broken = base_ones != d - 1
    base_defect = int(base_broken.sum())
    step = 1 - 2 * base  # a flip's change to its context's count of ones
    # connections sorted by left end; slot a's run starts at left_first[a]
    by_left = np.argsort(left, kind="stable")
    left_count = np.bincount(left, minlength=slots)
    left_first = np.cumsum(left_count) - left_count
    partner = right[by_left]
    degree = left_count + np.bincount(right, minlength=slots)

    rows = max(1, min(chunk_rows, CHUNK_SLOTS // slots))
    flipped = np.zeros(rows * slots, dtype=bool)
    ctx_errors = trials * base_broken.astype(np.int64)
    conn_mismatches = np.zeros(n_conn, dtype=np.int64)
    total_defect = trials * base_defect
    min_trial = slots + n_conn + 1

    offsets = _flip_offsets(model.seed, model.flip_rate, trials * slots, rows * slots)
    for done, q in zip(range(0, trials, rows), offsets):
        q = q.astype(np.int32)  # offsets stay below rows * slots, far under 2^31
        trial, slot = np.divmod(q, slots)

        # contexts: the net change of each touched (trial, context) count
        key = q // d  # trial * n_ctx + context, sorted because q is
        group = np.ones(len(q), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=group[1:])
        first = np.flatnonzero(group)
        g_ctx = slot[first] // d
        broken = base_ones[g_ctx] + np.add.reduceat(step[slot], first) != d - 1
        was = base_broken[g_ctx]
        ctx_errors += np.bincount(g_ctx[broken & ~was], minlength=n_ctx)
        ctx_errors -= np.bincount(g_ctx[was & ~broken], minlength=n_ctx)

        # connections: flips at either end, less twice the trials where both
        # flipped; each flip looks up the right ends of its left-end run
        ends = left_count[slot]
        pair = np.repeat(np.arange(len(q)), ends)
        j = (left_first[slot] - (np.cumsum(ends) - ends))[pair] + np.arange(len(pair))
        flipped[q] = True
        both = flipped[(q - slot)[pair] + partner[j]]
        flipped[q] = False
        per_slot = np.bincount(slot, minlength=slots)
        conn_mismatches += per_slot[left] + per_slot[right]
        conn_mismatches -= 2 * np.bincount(by_left[j[both]], minlength=n_conn)

        # per flip, the change to its trial's defect; a context's change is
        # counted at its group's first flip
        change = degree[slot] - 2 * np.bincount(pair[both], minlength=len(q))
        change[first] += broken.astype(np.int64) - was
        total_defect += int(change.sum())
        # float64 weights; the sums are small integers, so exact
        per_trial = np.bincount(trial, weights=change, minlength=min(rows, trials - done))
        min_trial = min(min_trial, base_defect + int(per_trial.min()))
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
