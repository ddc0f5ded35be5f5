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
``simulate_model`` for the rule and its measured crossover).  Each gives
a chunk's per-context errors, per-connection mismatches and least trial
defect; the total defect is the sum of the two counters.  ``_chunk_rows``
is the one rule that sizes the chunks, by their expected flips, and caps a
dense chunk's table at DENSE_TABLE bytes.  The stream and every counter
are the same whichever kernel runs and however the chunks fall.
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
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Optional

from .bounds import check_rate
from .coloring import DefectReport, min_defect
from .model import KsSet, check_integer, incidence

if TYPE_CHECKING:
    import numpy as np

#: A chunk takes about this many expected flips and flip pairs (``_chunk_rows``).
SPARSE_WORK = 1 << 16
#: ``simulate_model`` counts densely from this many flips per (slot + connection).
DENSE_FLIPS = 72
#: A dense chunk's 0/1 table holds at most this many bytes, beside its pad to
#: whole 8-byte words (``_chunk_rows``).
DENSE_TABLE = 1 << 18


def check_seed(seed: int, name: str = "seed") -> int:
    """Return ``seed`` as a Python int; raise ValueError unless it is an
    integer in [0, 2^64), a key of the Philox stream.  An integer is what
    ``check_integer`` accepts, so a numpy integer is one and a bool is not.
    ``name`` is what the message calls the value, such as a command-line
    flag."""
    # Philox would floor a float key (1.5 runs seed 1's stream) and take keys up to 2^128
    seed = check_integer(seed, name)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {seed!r}")
    return seed


class TrialModel(namedtuple("TrialModel", "ks_set base flip_rate seed")):
    """A hypothetical non-contextual value table plus independent slot noise.

    ``base`` assigns an error-free 0/1 value to every vector id, an integer
    and not ``True`` or ``1.0`` (:func:`~ksbound.model.check_integer`); each
    trial flips every (context, position) slot independently with
    probability ``flip_rate``.  On a KS set no base satisfies everything, so
    base sum defects mix with flip noise in the measured rates -- that
    mixing is the point of the exercise.  ``seed`` keys the Philox stream
    and must be an integer in [0, 2^64), and not a bool; it is kept as a
    Python int, so a summary's seed writes to JSON.
    """

    __slots__ = ()

    def __new__(
        cls, ks_set: KsSet, base: Mapping[str, int], flip_rate: float, seed: int
    ) -> TrialModel:
        check_rate(flip_rate, "flip rate")
        seed = check_seed(seed)
        for v in ks_set.vectors:
            if base.get(v.id) not in (0, 1):
                raise ValueError(f"base assignment must give 0/1 to vector {v.id!r}")
            check_integer(base[v.id], f"base value of vector {v.id!r}")
        return super().__new__(cls, ks_set, base, flip_rate, seed)


class SimSummary(NamedTuple):
    """Exact counters of one simulation run; all rates derive from them.

    On a KS set every trial violates at least one constraint, so the
    empirical inequality holds when ``min_trial_defect >= 1``; the
    ``simulate`` command reports it, with the worst rates and the union
    bound they imply, from these counters alone.  N and M are the lengths
    of the two count tuples, so M is the all-pairs count, never an override.
    """

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


def _live_flip_offsets(
    seed: int, r: float, total: int, width: int
) -> Iterator[tuple[np.ndarray, int]]:
    """The flipped positions of a run of ``total`` < 2^63 - 1 slots, one chunk
    of ``width`` positions at a time, each as sorted offsets from the chunk
    start and the chunk's length, until no flip is left in the run; the rest
    of the run, if any, then comes as one chunk without flips.  A chunk's
    offsets are a view of a buffer reused by the next one.

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
        yield held[:cut], hi - lo
        m -= cut
        held[:m] = held[cut : cut + m] - width  # the carry, from the next lo
        if last >= total - 1 and (m == 0 or held[0] >= total - lo - width):
            if hi < total:  # drawn past the run, and nothing carried lands in it
                yield held[:0], total - hi
            return


def _slot_layout(model: TrialModel) -> tuple[np.ndarray, ...]:
    """The base value of each slot, numbered as in the set's
    :class:`~ksbound.model.Incidence`; the left and right slots of each
    connection: every pair of a ray's slots, rays in declaration order and
    each ray's slots in context order; and per slot, its rank among its
    ray's slots, its ray's rank-0 slot (int32, like the sparse kernel's
    offsets), and ``to_conn``, such that the connection of the ray's slots
    s_i and s_j of ranks i < j is ``to_conn[s_i] + j``.

    One walk over each ray's slots lists them all: slot s_i of a ray is the
    left end of the connections to its later slots, listed as a run, and
    (s_i, s_j) lies j - i - 1 past that run's start."""
    import numpy as np

    ks = model.ks_set
    slots = len(ks.contexts) * ks.dimension
    # Python lists, each made an array once: numpy scalar stores are slower
    base, rank, root, to_conn = [0] * slots, [0] * slots, [0] * slots, [0] * slots
    left: list[int] = []
    right: list[int] = []
    for v, at in zip(ks.vectors, incidence(ks).slots):
        x = model.base[v.id]
        for i, s in enumerate(at):
            base[s], rank[s], root[s], to_conn[s] = x, i, at[0], len(left) - i - 1
            left += [s] * (len(at) - 1 - i)
            right += at[i + 1 :]
    return (
        np.array(base, dtype=np.int64), np.array(left, dtype=np.intp),
        np.array(right, dtype=np.intp), np.array(rank, dtype=np.intp),
        np.array(root, dtype=np.int32), np.array(to_conn, dtype=np.intp),
    )


def _sparse_kernel(
    base: np.ndarray, left: np.ndarray, right: np.ndarray, rank: np.ndarray,
    root: np.ndarray, to_conn: np.ndarray, d: int,
) -> Callable[[np.ndarray, int], tuple]:
    """The chunk counter that touches only the flips, over ``_slot_layout``'s
    tables.

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
    ray) with one stable sort, and the pairs of each group of two or more
    are listed; a pair's connection follows from its slots' ranks among the
    ray's slots.  So its cost grows with the flips, and the corrections'
    with the flips that share a trial and the pairs that share a ray: at r*
    most flips are alone in their trial.  Its arrays hold a few entries per
    flip and per pair, beside per-slot tables and the per-connection counts,
    so ``_chunk_rows`` sizes chunks by their expected flips and pairs.  The
    returned ``count(q, n)`` takes a chunk's flip offsets ``q``, all below
    2^31 so that int32 holds them, over ``n`` trials and gives its
    per-context errors, per-connection mismatches and least per-trial
    defect.  A chunk without flips may span any ``n`` trials.
    """
    import numpy as np

    slots, n_ctx, n_conn = len(base), len(base) // d, len(left)
    base_ones = base.reshape(n_ctx, d).sum(axis=1)
    base_broken = (base_ones != d - 1).astype(np.int64)
    base_defect = int(base_broken.sum())
    step = 1 - 2 * base  # a flip's change to its context's count of ones
    ctx_of = np.arange(slots) // d
    solo_delta = (base_ones[ctx_of] + step != d - 1) - base_broken[ctx_of]
    degree = np.bincount(left, minlength=slots) + rank
    solo_change = (degree + solo_delta).astype(np.int32)  # a lone flip's change to its trial's defect

    def repeats(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For a sorted ``key``: where the entries whose key repeats lie, and
        the bounds of each key's run among them, one past the last included."""
        same = np.flatnonzero(key[1:] == key[:-1])  # entries i, i + 1 share a key
        member = np.zeros(len(key), dtype=bool)
        member[same] = member[same + 1] = True
        at = np.flatnonzero(member)
        new = np.ones(len(at) + 1, dtype=bool)
        np.not_equal(key[at[1:]], key[at[:-1]], out=new[1:-1])
        return at, np.flatnonzero(new)

    def split(q: np.ndarray) -> tuple:
        """A chunk's flips per slot, its trials with a flip, and for the
        flips that share their trial: trial * slots, slot, and where each
        trial's run of them starts.  Its arrays as long as all the flips
        are freed when it returns, before the corrections make theirs."""
        slot = q.astype(np.int32)  # offsets stay below a chunk's width, at most 2^30
        trial = slot // slots
        start = np.ones(len(q) + 1, dtype=bool)  # flip i starts a trial; one past the end
        np.not_equal(trial[1:], trial[:-1], out=start[1:-1])
        shared = np.flatnonzero(~(start[:-1] & start[1:]))
        trial *= slots
        ts = trial.take(shared)
        slot -= trial  # in place; not divmod, which is several times slower
        del trial  # frees 4 bytes per flip before the arrays below
        per_slot = np.zeros(slots, dtype=np.intp)
        for lo in range(0, len(slot), 1 << 14):  # bincount copies int32 to intp: in blocks
            per_slot += np.bincount(slot[lo : lo + (1 << 14)], minlength=slots)
        start = start[:-1]
        return per_slot, np.count_nonzero(start), ts, slot.take(shared), np.flatnonzero(start[shared])

    def shared_contexts(key: np.ndarray, ss: np.ndarray, change: np.ndarray) -> np.ndarray | int:
        """Per context, the errors of each (trial, context) with two or more
        shared flips less those flips' solo ones, each such group's
        correction also added to ``change`` at its first flip.  ``key`` is
        each shared flip's trial * n_ctx + context, sorted.  Its arrays are
        freed when it returns, before the pairs on a ray make theirs."""
        at, bounds = repeats(key)
        if not len(at):
            return 0
        first = bounds[:-1]
        s_at, g_ctx = ss[at], ss[at[first]] // d
        broken = base_ones[g_ctx] + np.add.reduceat(step[s_at], first) != d - 1
        g_fix = broken - base_broken[g_ctx] - np.add.reduceat(solo_delta[s_at], first)
        change[at[first]] += g_fix
        # float64 weights; the sums are small integers, so exact
        return np.bincount(g_ctx, weights=g_fix, minlength=n_ctx).astype(np.int64)

    def count(q: np.ndarray, n: int) -> tuple:
        per_slot, busy, ts, ss, runs = split(q)
        ctx_errors = n * base_broken + (per_slot * solo_delta).reshape(n_ctx, d).sum(axis=1)

        alone = per_slot  # per slot, the flips alone in their trial
        least = n_ctx + n_conn  # the least change to a trial's defect
        conn_mismatches = per_slot.take(left)
        conn_mismatches += per_slot.take(right)
        if len(ss):
            # once, after split has freed its per-flip arrays: numpy would
            # copy int32 indices to intp at each use below
            ss = ss.astype(np.intp)
            alone = per_slot - np.bincount(ss, minlength=slots)
            change = solo_change.take(ss)  # each shared flip's solo change, corrected below

            # contexts with two or more flips in one trial, fixed at the first;
            # the key is trial * n_ctx + context, int32 as ts, sorted because q is
            ctx_errors += shared_contexts(np.add(ts, ss, dtype=np.int32) // d, ss, change)

            # flips on one ray in one trial: keyed by trial * slots + root and
            # sorted stably, so that each ray's flips keep their slot order
            ts += root.take(ss)  # ts is not needed again
            order = np.argsort(ts, kind="stable")
            at, bounds = repeats(ts.take(order))
            if len(at):
                order = order.take(at)  # the flips in groups of two or more, grouped
                # grouped flip i pairs with the ``later[i]`` flips after it in
                # its group; each pair takes 2 off its trial's defect, here at i
                after = np.arange(1, len(at) + 1)
                later = np.repeat(bounds[1:], bounds[1:] - bounds[:-1]) - after
                change[order] -= 2 * later
                # pair p of flip i is (i, i + 1 + p - the first pair of i)
                j = np.repeat(after - (np.cumsum(later) - later), later)
                j += np.arange(len(j))  # in place: these grow with the pairs
                s_grouped = ss.take(order)
                conn = np.repeat(to_conn.take(s_grouped), later)
                conn += rank.take(s_grouped).take(j)
                np.subtract.at(conn_mismatches, conn, 2)  # its ends agree

            # the change of each trial with two or more flips; int32, not an
            # int64 copy, holds it: it is at most slots + 2 * connections
            least = np.add.reduceat(change, runs, dtype=np.int32).min()
        least = solo_change[alone > 0].min(initial=least)  # or of a trial with one flip
        if busy < n:  # a trial without flips keeps the base defect
            least = min(least, 0)
        return ctx_errors, conn_mismatches, base_defect + int(least)

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
    and its broken contexts are taken off their counts.  A chunk without
    flips is the base in every trial, so its ``n`` may pass ``width``: the
    same term then adds the trials the table lacks.  Context sums are
    d strided row adds, and connections compare rows ``left`` and ``right``
    in blocks of at most ``slots`` connections.  Its cost grows with trials
    * (slots + connections), whatever the flip count.  Its largest arrays
    are three uint8 buffers of slots * width bytes, at most DENSE_TABLE
    each beside the pad (``_chunk_rows`` caps ``rows``), made once per run
    and reused by every chunk, and a block's 2^20 bytes of table offsets;
    every other array it makes is no larger, beside the counts, 8 bytes per
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
        return ctx_errors, conn_mismatches, int(per_trial[:n].min())

    return count


def _dense_wins(flip_rate: float, slots: int, connections: int) -> bool:
    """Whether ``_dense_kernel`` is the faster counter for a run: its expected
    flips per trial, times DENSE_FLIPS, reach its slots plus connections."""
    return flip_rate * slots * DENSE_FLIPS >= slots + connections


def _chunk_rows(flip_rate: float, slots: int, connections: int) -> int:
    """Trials per chunk of a run, whichever kernel counts it.

    The sparse kernel's work and memory grow with the flips and the pairs of
    flips on one connection, r * slots + r^2 * connections expected per
    trial, and each chunk of either kernel also pays once per slot and
    connection.  So a chunk takes about max(SPARSE_WORK, slots +
    connections) of that expected work, which keeps the per-chunk cost paid
    back and bounds a chunk's memory at any rate; and at most 2^30
    trial-slots, so that the sparse kernel's int32 offsets hold.  Where
    ``_dense_wins``, a chunk also takes at most DENSE_TABLE // slots trials,
    and one at least, so the dense kernel's 0/1 table holds at most
    DENSE_TABLE bytes beside its pad.  At r = 0.1 and just past the switch
    the work budget alone made it 2.3-2.4x and 9-12x larger on the
    benchmark sets; capped, a call's three tables fit in a 2 MiB L2 cache.
    """
    work = flip_rate * slots + flip_rate**2 * connections
    budget = max(SPARSE_WORK, slots + connections)
    most = max(1, (1 << 30) // slots)
    if _dense_wins(flip_rate, slots, connections):
        most = min(most, max(1, DENSE_TABLE // slots))
    return most if work * most <= budget else max(1, int(budget / work))


def simulate_model(model: TrialModel, trials: int) -> SimSummary:
    """Run the trial model, counting every violated constraint per trial.

    Per trial: flip each of the N*d slots of the base table independently
    with probability r, then count contexts whose slot sum differs from d-1
    and connections (every pair of a ray's slots, see ``_slot_layout``)
    whose two slots disagree.

    Only the flips are drawn (see ``_live_flip_offsets``), a chunk at a
    time, each of as many trials as ``_chunk_rows`` gives.  Once the stream
    has no flip left in the run, the trials left form one last chunk,
    without flips.  A trial's defect is its broken contexts plus its
    mismatched connections, so the total defect is the sum of both
    counters, taken in Python ints, exact past int64.
    One of two kernels counts every chunk of a run, chosen once from its
    rate and set by ``_dense_wins``.  ``_sparse_kernel`` counts each flip as
    if it were alone in its trial and corrects where flips share one, so its
    cost grows with the flips; ``_dense_kernel`` evaluates a 0/1 table of
    every slot, so its cost grows with trials * (slots + connections).
    Timed in process on the same chunks of one run of the four benchmark
    sets, they cost the same at 0.022-0.027 flips per slot, one flip per
    58-84 slots and connections.  DENSE_FLIPS = 72 lies inside that range
    and switches at r = 0.0208-0.0259 on those sets, where the kernel
    chosen is at most about 1.5x slower than the other (cabello18, just
    past its switch).  The rule leaves every catalog r* (at most 0.0142)
    sparse with a 1.4x margin and r = 0.1 dense with a 3.8x one; a set with
    many connections per slot, such as a fan of 1000 triads on one ray,
    stays sparse at every rate.  Memory per chunk is bounded either way.
    A dense chunk holds at most max(DENSE_TABLE, slots) trial-slots
    (``_chunk_rows``), so each of the dense kernel's three 0/1 tables holds
    at most that plus 8 * slots bytes, its pad to whole words, and its flip
    offsets at most 2^20 bytes a block (``_dense_kernel``): one call of
    4 * 10^6 trial-slots peaks at about 1.1 MiB traced just past the switch
    and 1.6 MiB at r = 0.1 on the four sets.  The sparse kernel's arrays
    hold a few entries per expected flip and pair, beside per-slot and
    per-connection counts.  Both kernels give the same counters from the
    same flips, so the kernel changes no counter.
    A set without contexts has no slots: nothing is drawn, and every counter
    and the per-trial minimum are 0.
    The counters are exact integers and reproducible from (seed, trials)
    alone, whatever the chunk size or kernel.
    """
    import numpy as np

    # a Python int: a numpy integer would overflow the int64 sums
    trials = check_integer(trials, "trials", 1)
    d = model.ks_set.dimension
    n_ctx = len(model.ks_set.contexts)
    slots = n_ctx * d
    if trials * slots >= 2**63 - 1:  # so a gap to the run's end fits int64
        raise ValueError(f"trials * slots must be < 2^63 - 1, got {trials} * {slots}")
    if slots == 0:
        return SimSummary(model.seed, trials, model.flip_rate, (), (), 0, 0)
    base, left, right, *ranks = _slot_layout(model)
    n_conn = len(left)
    rows = _chunk_rows(model.flip_rate, slots, n_conn)
    if _dense_wins(model.flip_rate, slots, n_conn):
        count = _dense_kernel(base, left, right, d, rows)
    else:
        count = _sparse_kernel(base, left, right, *ranks, d)
    ctx_errors = np.zeros(n_ctx, dtype=np.int64)
    conn_mismatches = np.zeros(n_conn, dtype=np.int64)
    min_trial = slots + n_conn + 1
    for q, span in _live_flip_offsets(model.seed, model.flip_rate, trials * slots, rows * slots):
        ctx, conn, least = count(q, span // slots)
        ctx_errors += ctx
        conn_mismatches += conn
        min_trial = min(min_trial, least)
    ctx_counts = tuple(ctx_errors.tolist())
    conn_counts = tuple(conn_mismatches.tolist())
    total = sum(ctx_counts) + sum(conn_counts)
    return SimSummary(model.seed, trials, model.flip_rate, ctx_counts, conn_counts, total, min_trial)


def default_base(ks: KsSet, report: Optional[DefectReport] = None) -> dict[str, int]:
    """A defect-optimal non-contextual base: each ray's value in a min_defect
    witness, and 1 for a ray in no context.

    The witness is a per-vector coloring (every slot of a ray holds one
    value), so reading any slot of a ray gives its value: here its last, in
    the set's :class:`~ksbound.model.Incidence`, which numbers the witness's
    slots.  A d_min == 0 witness is a satisfying coloring.  Pass ``report``
    when the caller already holds ``min_defect(ks)``; the set is then not
    searched again.
    """
    if report is None:
        report = min_defect(ks)
    return {
        v.id: report.witness[at[-1]] if at else 1
        for v, at in zip(ks.vectors, incidence(ks).slots)
    }
