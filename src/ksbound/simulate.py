"""Seeded Monte Carlo validation of the independent-error model.

All randomness comes from a counter-based Philox stream keyed by the 64-bit
seed, and every count is an exact integer.  ``simulate_model`` is the one
sampler: it draws only where flips land, one stream of geometric gaps over the
row-major (trial, slot) index of the whole run (the ``philox-geometric``
stream).  Two kernels count the same flips: at low rates one re-counts only
the contexts and connections the flips touch, and at high rates the other
evaluates a 0/1 table of every slot of the chunk's trials (see
``simulate_model`` for the rule and its measured crossover).  The stream, the
chunks and every counter are the same whichever kernel runs.
One connection (two triads sharing a ray) and one context (a lone triad) are
sets like any other, so the analytic rates delta(r) and epsilon(r, d) are
checked on this engine too.  Results are reproducible across runs and chunk
sizes.  numpy's geometric sampler calls ``log``, so bit-identity across
platforms rests on their libm agreeing.  numpy is imported inside the
functions that draw, so importing this module (and so ``ksbound`` and its CLI)
does not load it.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Optional

from .coloring import DefectReport, min_defect
from .model import KsSet, build_stats

if TYPE_CHECKING:
    import numpy as np

#: ``simulate_model`` holds at most this many trial-slots per chunk.
CHUNK_SLOTS = 1 << 20
#: ``simulate_model`` counts densely from this many flips per (slot + connection).
DENSE_FLIPS = 64


class TrialModel(namedtuple("TrialModel", "ks_set base flip_rate seed")):
    """A hypothetical non-contextual value table plus independent slot noise.

    ``base`` assigns an error-free 0/1 value to every vector id; each trial
    flips every (context, position) slot independently with probability
    ``flip_rate``.  On a KS set no base satisfies everything, so base sum
    defects mix with flip noise in the measured rates -- that mixing is the
    point of the exercise.
    """

    __slots__ = ()

    def __new__(
        cls, ks_set: KsSet, base: Mapping[str, int], flip_rate: float, seed: int
    ) -> TrialModel:
        if not 0 <= flip_rate <= 1:
            raise ValueError(f"flip rate must lie in [0, 1], got {flip_rate}")
        for v in ks_set.vectors:
            if base.get(v.id) not in (0, 1):
                raise ValueError(f"base assignment must give 0/1 to vector {v.id!r}")
        return super().__new__(cls, ks_set, base, flip_rate, seed)


class SimSummary(NamedTuple):
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
    import numpy as np

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


def _slot_layout(model: TrialModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The base value of each slot, context by context, and the left and right
    slots of each connection, in build_stats' all-pairs order."""
    import numpy as np

    ks = model.ks_set
    d = ks.dimension
    base = np.array(
        [model.base[vid] for ctx in ks.contexts for vid in ctx.vector_ids], dtype=np.int64
    )
    at = [{vid: p for p, vid in enumerate(ctx.vector_ids)} for ctx in ks.contexts]
    conn_slots = [
        (a * d + at[a][vid], b * d + at[b][vid]) for vid, (a, b) in build_stats(ks).connections
    ]
    left, right = np.array(conn_slots, dtype=np.intp).reshape(-1, 2).T
    return base, left, right


def _sparse_kernel(
    base: np.ndarray, left: np.ndarray, right: np.ndarray, d: int, rows: int
) -> Callable[[np.ndarray, int], tuple]:
    """The chunk counter that touches only the flips.

    It counts from the base defect and re-counts only the contexts and
    connections the flips touch: the base is a per-vector assignment, so
    every connection agrees before noise, and a connection mismatches exactly
    when one of its two slots flipped.  Its cost grows with the number of
    flips.  The returned ``count(q, n)`` takes a chunk's flip offsets ``q``
    over ``n`` trials and gives its per-context errors, per-connection
    mismatches, total defect and least per-trial defect.
    """
    import numpy as np

    slots, n_ctx, n_conn = len(base), len(base) // d, len(left)
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
    flipped = np.zeros(rows * slots, dtype=bool)

    def count(q: np.ndarray, n: int) -> tuple:
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
        ctx_errors = n * base_broken.astype(np.int64)
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
        conn_mismatches = per_slot[left] + per_slot[right]
        conn_mismatches -= 2 * np.bincount(by_left[j[both]], minlength=n_conn)

        # per flip, the change to its trial's defect; a context's change is
        # counted at its group's first flip
        change = degree[slot] - 2 * np.bincount(pair[both], minlength=len(q))
        change[first] += broken.astype(np.int64) - was
        # float64 weights; the sums are small integers, so exact
        per_trial = np.bincount(trial, weights=change, minlength=n)
        total = n * base_defect + int(change.sum())
        return ctx_errors, conn_mismatches, total, base_defect + int(per_trial.min())

    return count


def _dense_kernel(
    base: np.ndarray, left: np.ndarray, right: np.ndarray, d: int, rows: int
) -> Callable[[np.ndarray, int], tuple]:
    """The chunk counter that evaluates every slot of every trial.

    It fills a slot-major 0/1 table, one row of ``n`` trial values per slot:
    ``base`` repeated over the trials, with 1 XORed in at each flip.  Context
    sums are d strided row adds, and connections compare rows ``left`` and
    ``right`` in blocks of at most ``slots`` connections.  Its cost grows with
    trials * (slots + connections), whatever the flip count.  Its largest
    arrays are four uint8 buffers of rows * slots <= max(CHUNK_SLOTS, slots)
    bytes, made once per run and reused by every chunk; every other array
    that grows with the trials is no larger, and the rest are the counts, 8
    bytes per context or connection.  ``count`` has the signature and
    results of ``_sparse_kernel``'s.
    """
    import numpy as np

    slots, n_conn = len(base), len(left)
    base = base.astype(np.uint8)
    ones_type = np.min_scalar_type(d)  # a context's count of ones fits
    defect_type = np.min_scalar_type(slots // d + n_conn)  # a trial's defect fits
    # reused by every chunk: fresh arrays of this size fault in new pages
    trial_major, slot_major, ends_a, ends_b = np.empty((4, rows * slots), dtype=np.uint8)

    def count(q: np.ndarray, n: int) -> tuple:
        table = trial_major[: n * slots].reshape(n, slots)
        table[...] = base
        trial_major[q] ^= 1
        value = slot_major[: n * slots].reshape(slots, n)
        value[...] = table.T
        ones = value[::d].astype(ones_type)
        for p in range(1, d):
            ones += value[p::d]
        broken = ones != d - 1
        per_trial = broken.sum(axis=0, dtype=defect_type)
        conn_mismatches = np.empty(n_conn, dtype=np.int64)
        for lo in range(0, n_conn, slots):
            hi = min(lo + slots, n_conn)
            a = ends_a[: (hi - lo) * n].reshape(hi - lo, n)
            b = ends_b[: (hi - lo) * n].reshape(hi - lo, n)
            # every end is a valid slot, so "clip" clips nothing; unlike
            # "raise", it writes straight into ``out``
            np.take(value, left[lo:hi], axis=0, out=a, mode="clip")
            np.take(value, right[lo:hi], axis=0, out=b, mode="clip")
            a ^= b  # 1 where the connection's two slots disagree
            conn_mismatches[lo:hi] = a.sum(axis=1)
            per_trial += a.sum(axis=0, dtype=defect_type)
        ctx_errors = np.count_nonzero(broken, axis=1)
        return ctx_errors, conn_mismatches, int(per_trial.sum()), int(per_trial.min())

    return count


def _dense_wins(flip_rate: float, slots: int, connections: int) -> bool:
    """Whether ``_dense_kernel`` is the faster counter for a run: its expected
    flips per trial, times DENSE_FLIPS, reach its slots plus connections."""
    return flip_rate * slots * DENSE_FLIPS >= slots + connections


def simulate_model(model: TrialModel, trials: int) -> SimSummary:
    """Run the trial model, counting every violated constraint per trial.

    Per trial: flip each of the N*d slots of the base table independently
    with probability r, then count contexts whose slot sum differs from d-1
    and connections (all-pairs list from build_stats) whose two slots
    disagree.

    Only the flips are drawn (see ``_flip_offsets``), a chunk at a time; a
    chunk holds one trial or, beyond that, at most CHUNK_SLOTS trial-slots.
    One of two kernels counts every chunk of a run, chosen once from its
    rate and set by ``_dense_wins``.  ``_sparse_kernel`` re-counts only the
    contexts and connections the flips touch, so its cost grows with the
    flips; ``_dense_kernel`` evaluates a 0/1 table of every slot, so its cost
    grows with trials * (slots + connections).  On the four benchmark sets
    they cost the same at 0.017-0.022 flips per slot, about one flip per 85
    slots and connections.  DENSE_FLIPS = 64 leaves every catalog r* (at
    most 0.0142) sparse with a 1.6x margin and r = 0.1 dense with a 3.4x
    one; a set with many connections per slot, such as a fan of 1000 triads
    on one ray, stays sparse at every rate.  The dense kernel's largest
    per-chunk array holds at most max(CHUNK_SLOTS, slots) bytes.  Both
    kernels give the same counters from the same flips, so the kernel
    changes no counter.
    A set without contexts has no slots: nothing is drawn, and every counter
    and the per-trial minimum are 0.
    The counters are exact integers and reproducible from (seed, trials)
    alone, whatever the chunk size or kernel.
    """
    import numpy as np

    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = model.ks_set.dimension
    n_ctx = len(model.ks_set.contexts)
    slots = n_ctx * d
    if trials * slots >= 2**63:
        raise ValueError(f"trials * slots must be < 2^63, got {trials} * {slots}")
    if slots == 0:
        return SimSummary(model.seed, trials, model.flip_rate, (), (), 0, 0)
    base, left, right = _slot_layout(model)
    n_conn = len(left)

    rows = max(1, CHUNK_SLOTS // slots)
    kernel = _dense_kernel if _dense_wins(model.flip_rate, slots, n_conn) else _sparse_kernel
    count = kernel(base, left, right, d, rows)
    ctx_errors = np.zeros(n_ctx, dtype=np.int64)
    conn_mismatches = np.zeros(n_conn, dtype=np.int64)
    total_defect = 0
    min_trial = slots + n_conn + 1
    offsets = _flip_offsets(model.seed, model.flip_rate, trials * slots, rows * slots)
    for done, q in zip(range(0, trials, rows), offsets):
        ctx, conn, total, least = count(q, min(rows, trials - done))
        ctx_errors += ctx
        conn_mismatches += conn
        total_defect += total
        min_trial = min(min_trial, least)
    return SimSummary(
        seed=model.seed,
        trials=trials,
        r=model.flip_rate,
        context_error_counts=tuple(int(c) for c in ctx_errors),
        connection_mismatch_counts=tuple(int(c) for c in conn_mismatches),
        total_defect=total_defect,
        min_trial_defect=min_trial,
    )


class InequalityVerdict(NamedTuple):
    """Empirical restatement of the defect floor on a verified KS set."""

    holds: bool
    mean_total_defect: float
    min_trial_defect: int
    delta_hat_max: float
    epsilon_hat_max: float
    implied_lhs: float  # M_all_pairs * delta_hat_max + N * epsilon_hat_max


def empirical_inequality_check(summary: SimSummary, report: DefectReport) -> InequalityVerdict:
    """Assert the simulated defect floor of an uncolorable set.

    ``report`` is the set's ``min_defect`` proof; a set with ``d_min < 1`` is
    colorable and its verdict undefined, so it is refused.  For a KS set every
    single trial violates at least one of the constraints, so the per-trial
    minimum (and with it the mean total defect) must be >= 1; also reports the
    worst per-event rates and the union-bound form
    M*max(delta_hat) + N*max(epsilon_hat) >= 1 they imply.  N and M are the
    summary's context and connection counts, so M is the all-pairs count,
    never an override.
    """
    if report.d_min < 1:
        raise ValueError(
            f"inequality check requires a KS-uncolorable set, got d_min {report.d_min}"
        )
    delta_max = max(summary.delta_hat, default=0.0)
    epsilon_max = max(summary.epsilon_hat, default=0.0)
    n_ctx, m_conn = len(summary.context_error_counts), len(summary.connection_mismatch_counts)
    implied = m_conn * delta_max + n_ctx * epsilon_max
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
    """A defect-optimal non-contextual base: each ray's value in a min_defect
    witness, and 1 for a ray in no context.

    The witness is a per-vector coloring (every slot of a ray holds one
    value), so reading any slot of a ray gives its value; a d_min == 0
    witness is a satisfying coloring.  Pass ``report`` when the caller already
    holds ``min_defect(ks)``; the set is then not searched again.
    """
    if report is None:
        report = min_defect(ks)
    base = {v.id: 1 for v in ks.vectors}
    for ci, ctx in enumerate(ks.contexts):
        for p, vid in enumerate(ctx.vector_ids):
            base[vid] = report.witness[(ci, p)]
    return base
