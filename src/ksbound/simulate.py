"""Seeded Monte Carlo validation of the independent-error model.

All randomness comes from a counter-based Philox stream keyed by the 64-bit
seed, and every count is an exact integer.  ``simulate_model`` is the one
sampler: it draws only where flips land, one stream of geometric gaps over the
row-major (trial, slot) index of the whole run (the ``philox-geometric``
stream).  Two kernels count the same flips.  At low rates one counts each
flip as if it were alone in its trial and corrects only where flips share
one, pairing the flips that share a ray in one sort.  At high rates the
other evaluates a slot-major 0/1 table of every slot of the chunk's trials,
its rows padded to whole 8-byte words so that bit counts sum them (see
``simulate_model`` for the rule and its measured crossover).  The stream,
the chunks and every counter are the same whichever kernel runs.
One connection (two triads sharing a ray) and one context (a lone triad) are
sets like any other, so the analytic rates delta(r) and epsilon(r, d) are
checked on this engine too.  Results are reproducible across runs and chunk
sizes.  The gaps equal numpy's ``Generator.geometric`` (a test holds them to
it): below r = 1/3 they are its inversion done in bulk into a reused buffer,
from 1/3 up its own search.  The draws call libm (``log1p``), so bit-identity
across platforms rests on their libm agreeing.  numpy is imported inside the
functions that draw, so importing this module (and so ``ksbound`` and its CLI)
does not load it.
"""
from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, combinations
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Optional

from .coloring import DefectReport, min_defect
from .model import KsSet

if TYPE_CHECKING:
    import numpy as np

#: ``simulate_model`` holds at most this many trial-slots per chunk.
CHUNK_SLOTS = 1 << 20
#: ``simulate_model`` counts densely from this many flips per (slot + connection).
DENSE_FLIPS = 96


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


def _geometric_gaps(gen: np.random.Generator, r: float, ahead: int, out: np.ndarray) -> None:
    """Fill int64 ``out`` with ``min(gen.geometric(r, len(out)), ahead)`` for
    0 < r <= 1 and ``ahead`` < 2^63, leaving ``gen`` as that call would.  Below
    1/3 numpy inverts, ceil(E / -log1p(-r)) for E standard exponential,
    saturated at 2^63 - 1; this does so in ``out``'s memory as float64, with
    log1p(-r) computed once.  From 1/3 up numpy searches; this calls it."""
    import numpy as np

    if r >= 0.333333333333333333333333:  # numpy's own switch, its literal
        np.minimum(gen.geometric(r, len(out)), ahead, out=out)
        return
    z = out.view(np.float64)
    gen.standard_exponential(out=z)
    with np.errstate(over="ignore"):  # to inf for tiny r, as in numpy
        z /= -math.log1p(-r)
    cap = float(ahead)  # the largest float <= ahead, so the cast never overflows
    if cap > ahead:
        cap = math.nextafter(cap, 0)
    past = z > cap if cap < ahead else None  # gaps past cap reach ahead
    np.minimum(z, cap, out=z)  # cap is whole, so ceil commutes with it
    np.ceil(z, out=z)
    out[...] = z  # element by element, so in place
    if past is not None:
        out[past] = ahead


def _live_flip_offsets(seed: int, r: float, total: int, width: int) -> Iterator[np.ndarray]:
    """The flipped positions of a run of ``total`` < 2^63 - 1 slots, one chunk
    of ``width`` positions at a time, each as sorted offsets from the chunk
    start, until no flip is left in the run.  A chunk is a view of a buffer
    reused by the next one.

    One Philox(key=seed) stream of geometric(r) gaps (``_geometric_gaps``)
    places flip k at p_k = p_{k-1} + g_k with p_0 = -1.  Positions drawn past
    a chunk's end carry into the next chunk, so the flips do not depend on
    ``width``.
    """
    import numpy as np

    gen = np.random.Generator(np.random.Philox(key=seed))
    last = -1 if r > 0 else total  # the last position drawn; at r = 0 none lands in the run
    held = np.empty(0, dtype=np.int64)  # offsets from lo of the carried and drawn flips
    m = 0  # how many of ``held`` are in use
    for lo in range(0, total, width):
        hi = min(lo + width, total)
        while last < hi - 1:
            ahead = total - last  # a gap this long lands past the run
            mean = r * (hi - 1 - last)
            # about 4 sigma past the mean count, so one draw usually reaches
            # hi; numpy saturates gaps at 2^63 - 1 for tiny r, so clip each to
            # ``ahead`` and draw few enough that the cumulative sum fits int64
            n = min(int(mean + 4 * math.sqrt(mean)) + 16, (2**63 - 1 - last) // ahead)
            if len(held) < m + n:
                # an eighth spare, so the next chunk's carry and draw fit too
                held = np.concatenate((held[:m], np.empty(n + n // 8, dtype=np.int64)))
            gaps = held[m : m + n]
            _geometric_gaps(gen, r, ahead, gaps)
            gaps[0] += last - lo
            np.cumsum(gaps, out=gaps)
            last = lo + int(gaps[-1])
            m += n
        cut = int(np.searchsorted(held[:m], hi - lo))
        yield held[:cut]
        m -= cut
        held[:m] = held[cut : cut + m] - width  # the carry, from the next lo
        if last >= total - 1 and (m == 0 or held[0] >= total - lo - width):
            return  # drawn past the run, and nothing carried lands in it


def _slot_layout(model: TrialModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The base value of each slot, context by context, and the left and right
    slots of each connection: every pair of a ray's slots, rays in declaration
    order and each ray's slots in context order."""
    import numpy as np

    ks = model.ks_set
    d = ks.dimension
    base = np.array(
        [model.base[vid] for ctx in ks.contexts for vid in ctx.vector_ids], dtype=np.int64
    )
    held: dict[str, list[int]] = {v.id: [] for v in ks.vectors}
    for ci, ctx in enumerate(ks.contexts):
        for p, vid in enumerate(ctx.vector_ids):
            held[vid].append(ci * d + p)
    pairs = chain.from_iterable(combinations(at, 2) for at in held.values())
    # copied row by row: gathers by a strided index array are far slower
    left, right = np.fromiter(chain.from_iterable(pairs), dtype=np.intp).reshape(-1, 2).T.copy()
    return base, left, right


def _ray_ranks(
    left: np.ndarray, right: np.ndarray, slots: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per slot, from ``_slot_layout``'s connections: its rank among its
    ray's slots, its ray's rank-0 slot, and ``to_conn``, such that the
    connection of the ray's slots s_i and s_j of ranks i < j is
    ``to_conn[s_i] + j``.

    A slot of rank j is the right end of j connections, and the rank-0 slot
    is the left end of one with each other slot of its ray.  A ray's pairs
    are in ``combinations`` order, so the connections of one left end s_i
    are a run, and (s_i, s_j) lies j - i - 1 past the run's start.
    """
    import numpy as np

    rank = np.bincount(right, minlength=slots)
    root = np.arange(slots)
    first = rank[left] == 0  # the connections of each ray's rank-0 slot
    root[right[first]] = left[first]
    run = np.flatnonzero(np.diff(left, prepend=-1))  # where each left end's run starts
    to_conn = np.zeros(slots, dtype=np.intp)
    to_conn[left[run]] = run
    to_conn -= rank + 1
    return rank, root, to_conn


def _sparse_kernel(
    base: np.ndarray, left: np.ndarray, right: np.ndarray, d: int, rows: int
) -> Callable[[np.ndarray, int], tuple]:
    """The chunk counter that touches only the flips.

    It counts every flip as if it were alone in its trial, then corrects
    only where flips share a trial.  The base is a per-vector assignment, so
    every connection agrees before noise.  A lone flip changes its context's
    verdict by its slot's ``solo_delta`` and mismatches each of the slot's
    ``degree`` connections, so the chunk's counters follow from its flips per
    slot and two per-slot tables made once per run.  Where flips share a
    trial, a (trial, context) with two or more flips adds its actual change
    less its flips' solo ones.  Two flips on one ray in one trial are the
    two ends of one connection, which then agrees: that takes 2 off its
    count and its trial's defect.  The shared flips are grouped by (trial,
    ray) with one stable sort, and each group's pairs are listed; a pair's
    connection follows from its slots' ranks among the ray's slots (see
    ``_ray_ranks``).  So its cost grows with the flips, and the
    corrections' with the flips that share a trial and the pairs that share
    a ray: at r* most flips are alone in their trial.  The returned
    ``count(q, n)`` takes a chunk's flip offsets ``q`` over ``n`` trials and
    gives its per-context errors, per-connection mismatches, total defect
    and least per-trial defect.
    """
    import numpy as np

    slots, n_ctx, n_conn = len(base), len(base) // d, len(left)
    base_ones = base.reshape(n_ctx, d).sum(axis=1)
    base_broken = (base_ones != d - 1).astype(np.int64)
    base_defect = int(base_broken.sum())
    step = 1 - 2 * base  # a flip's change to its context's count of ones
    ctx_of = np.arange(slots) // d
    solo_delta = (base_ones[ctx_of] + step != d - 1) - base_broken[ctx_of]
    rank, root, to_conn = _ray_ranks(left, right, slots)
    degree = np.bincount(left, minlength=slots) + rank
    solo_change = degree + solo_delta  # a lone flip's change to its trial's defect

    def count(q: np.ndarray, n: int) -> tuple:
        q = q.astype(np.int32)  # offsets stay below rows * slots, far under 2^31
        trial = q // slots
        slot = q - trial * slots  # not divmod, which is several times slower
        per_slot = np.bincount(slot, minlength=slots)
        ctx_errors = n * base_broken + (per_slot * solo_delta).reshape(n_ctx, d).sum(axis=1)
        total = n * base_defect + int(per_slot @ solo_change)

        start = np.ones(len(q) + 1, dtype=bool)  # flip i starts a trial; one past the end
        np.not_equal(trial[1:], trial[:-1], out=start[1:-1])
        shared = np.flatnonzero(~(start[:-1] & start[1:]))
        alone = per_slot  # per slot, the flips alone in their trial
        least = n_ctx + n_conn  # the least change to a trial's defect
        conn_mismatches = per_slot.take(left)
        conn_mismatches += per_slot.take(right)
        if len(shared):
            qs, ss = q[shared], slot[shared]
            alone = per_slot - np.bincount(ss, minlength=slots)
            fix = np.zeros(len(qs), dtype=np.int64)  # each shared flip's correction

            # contexts with two or more flips in one trial, fixed at the first
            key = qs // d  # trial * n_ctx + context, sorted because q is
            same = np.flatnonzero(key[1:] == key[:-1])  # flips i, i + 1 share one
            if len(same):
                member = np.zeros(len(qs), dtype=bool)
                member[same] = member[same + 1] = True
                at = np.flatnonzero(member)
                group = np.ones(len(at), dtype=bool)
                np.not_equal(key[at[1:]], key[at[:-1]], out=group[1:])
                first = np.flatnonzero(group)
                s_at, g_ctx = ss[at], ss[at[first]] // d
                broken = base_ones[g_ctx] + np.add.reduceat(step[s_at], first) != d - 1
                g_fix = broken - base_broken[g_ctx] - np.add.reduceat(solo_delta[s_at], first)
                fix[at[first]] = g_fix
                # float64 weights; the sums are small integers, so exact
                ctx_errors += np.bincount(g_ctx, weights=g_fix, minlength=n_ctx).astype(np.int64)

            # flips on one ray in one trial: keyed by trial * slots + root and
            # sorted stably, so that each ray's flips keep their slot order
            key = qs - ss + root.take(ss)
            order = np.argsort(key, kind="stable")
            key = key.take(order)
            new = np.ones(len(qs) + 1, dtype=bool)  # sorted flip i starts a group; one past
            np.not_equal(key[1:], key[:-1], out=new[1:-1])
            bounds = np.flatnonzero(new)
            # sorted flip i pairs with the ``later[i]`` flips after it in its
            # group; each pair takes 2 off its trial's defect, here at flip i
            after = np.arange(1, len(qs) + 1)
            later = np.repeat(bounds[1:], np.diff(bounds)) - after
            fix[order] -= 2 * later
            # pair p of flip i is (i, i + 1 + p - the first pair of i)
            j = np.repeat(after - (np.cumsum(later) - later), later)
            j += np.arange(len(j))  # in place: these grow with the pairs
            s_sorted = ss.take(order)
            conn = np.repeat(to_conn.take(s_sorted), later)
            conn += rank.take(s_sorted).take(j)
            np.subtract.at(conn_mismatches, conn, 2)  # its ends agree

            # the change of each trial with two or more flips
            per_trial = np.add.reduceat(solo_change.take(ss) + fix, np.flatnonzero(start[shared]))
            least = per_trial.min()
            total += int(fix.sum())
        least = solo_change[alone > 0].min(initial=least)  # or of a trial with one flip
        if np.count_nonzero(start[:-1]) < n:  # a trial without flips keeps the base defect
            least = min(least, 0)
        return ctx_errors, conn_mismatches, total, base_defect + int(least)

    return count


def _dense_kernel(
    base: np.ndarray, left: np.ndarray, right: np.ndarray, d: int, rows: int
) -> Callable[[np.ndarray, int], tuple]:
    """The chunk counter that evaluates every slot of every trial.

    It fills a slot-major 0/1 table, one row of trials per slot: 0 at
    first, 1 at each flip's (slot, trial), worked out from its offset in
    blocks of at most 2^17 flips, and then ``base`` XORed into every row.
    Each row is ``width`` trials, ``rows`` rounded up to whole 8-byte words,
    so a bit count of a row's words sums its 0/1 bytes.  Past ``n``, and so
    in the pad, the table holds the base alone: connections agree there,
    and its broken contexts are taken off their counts.  Context sums are
    d strided row adds, and connections compare rows ``left`` and ``right``
    in blocks of at most ``slots`` connections.  Its cost grows with trials
    * (slots + connections), whatever the flip count.  Its largest arrays
    are three uint8 buffers of slots * width bytes, made once per run and
    reused by every chunk, and a block's 2^20 bytes of table offsets; every
    other array it makes is no larger, beside the counts, 8 bytes per
    context or connection.  ``count`` has the signature and results of
    ``_sparse_kernel``'s.
    """
    import numpy as np

    slots, n_conn = len(base), len(left)
    width = -(-rows // 8) * 8
    base = base.astype(np.uint8)
    base_broken = base.reshape(-1, d).sum(axis=1) != d - 1
    ones_type = np.min_scalar_type(d)  # a context's count of ones fits
    defect_type = np.min_scalar_type(slots // d + n_conn)  # a trial's defect fits
    # reused by every chunk: fresh arrays of this size fault in new pages
    flat, ends_a, ends_b = np.empty((3, slots * width), dtype=np.uint8)
    value = flat.reshape(slots, width)

    def row_sums(rows01: np.ndarray) -> np.ndarray:
        return np.bitwise_count(rows01.view(np.uint64)).sum(axis=1, dtype=np.int64)

    def count(q: np.ndarray, n: int) -> tuple:
        flat[...] = 0
        for lo in range(0, len(q), 1 << 17):
            block = q[lo : lo + (1 << 17)]
            trial = block // slots
            at = block * width
            trial *= slots * width - 1
            at -= trial  # slot * width + trial
            flat[at] = 1
        np.bitwise_xor(value, base[:, None], out=value)
        ones = value[::d].astype(ones_type)
        for p in range(1, d):
            ones += value[p::d]
        broken = ones != d - 1
        per_trial = broken.sum(axis=0, dtype=defect_type)
        ctx_errors = row_sums(broken) - (width - n) * base_broken
        conn_mismatches = np.empty(n_conn, dtype=np.int64)
        for lo in range(0, n_conn, slots):
            hi = min(lo + slots, n_conn)
            a = ends_a[: (hi - lo) * width].reshape(hi - lo, width)
            b = ends_b[: (hi - lo) * width].reshape(hi - lo, width)
            # every end is a valid slot, so "clip" clips nothing; unlike
            # "raise", it writes straight into ``out``
            np.take(value, left[lo:hi], axis=0, out=a, mode="clip")
            np.take(value, right[lo:hi], axis=0, out=b, mode="clip")
            a ^= b  # 1 where the connection's two slots disagree
            conn_mismatches[lo:hi] = row_sums(a)
            per_trial += a.sum(axis=0, dtype=defect_type)
        per_trial = per_trial[:n]
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
    and connections (every pair of a ray's slots, see ``_slot_layout``)
    whose two slots disagree.

    Only the flips are drawn (see ``_live_flip_offsets``), a chunk at a
    time; a chunk holds one trial or, beyond that, at most CHUNK_SLOTS
    trial-slots.  Once the stream has no flip left in the run, the trials
    left are counted at once, as copies of one trial without flips.
    One of two kernels counts every chunk of a run, chosen once from its
    rate and set by ``_dense_wins``.  ``_sparse_kernel`` counts each flip as
    if it were alone in its trial and corrects where flips share one, so its
    cost grows with the flips; ``_dense_kernel`` evaluates a 0/1 table of
    every slot, so its cost grows with trials * (slots + connections).
    Timed in process on the same chunks of the four benchmark sets, they
    cost the same at 0.015-0.020 flips per slot, one flip per 74-122 slots
    and connections, a range that DENSE_FLIPS = 96 lies in.  The rule leaves
    every catalog r* (at most 0.0142) sparse with a 1.1x margin and r = 0.1
    dense with a 5.1x one; a set with many connections per slot, such as a
    fan of 1000 triads on one ray, stays sparse at every rate.  A chunk of
    more than 8 trials holds a multiple of 8, so no array the dense kernel
    makes holds more than max(CHUNK_SLOTS, 8 * slots) bytes.  Both kernels
    give the same counters from the same flips, so the kernel changes no
    counter.
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
    if trials * slots >= 2**63 - 1:  # so a gap to the run's end fits int64
        raise ValueError(f"trials * slots must be < 2^63 - 1, got {trials} * {slots}")
    if slots == 0:
        return SimSummary(model.seed, trials, model.flip_rate, (), (), 0, 0)
    base, left, right = _slot_layout(model)
    n_conn = len(left)

    rows = max(1, CHUNK_SLOTS // slots)
    if rows > 8:  # whole 8-byte words of trials, so _dense_kernel pads no row
        rows -= rows % 8
    kernel = _dense_kernel if _dense_wins(model.flip_rate, slots, n_conn) else _sparse_kernel
    count = kernel(base, left, right, d, rows)
    ctx_errors = np.zeros(n_ctx, dtype=np.int64)
    conn_mismatches = np.zeros(n_conn, dtype=np.int64)
    total_defect = 0
    min_trial = slots + n_conn + 1
    done = 0
    for q in _live_flip_offsets(model.seed, model.flip_rate, trials * slots, rows * slots):
        ctx, conn, total, least = count(q, min(rows, trials - done))
        ctx_errors += ctx
        conn_mismatches += conn
        total_defect += total
        min_trial = min(min_trial, least)
        done += rows
    if done < trials:  # the stream has ended: each trial left is one without flips
        ctx, conn, total, least = count(np.empty(0, dtype=np.int64), 1)
        ctx_errors += (trials - done) * ctx
        conn_mismatches += (trials - done) * conn
        total_defect += (trials - done) * total
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
