"""Colorability and minimum-defect search for KS sets.

A *coloring* assigns 0 or 1 to every ray so that each context has exactly
one zero (value sum d-1).  A KS set is one admitting no such assignment.
``min_defect`` generalizes this to contextual slot assignments, minimizing
the number of violated constraints (wrong context sums plus disagreeing
connections); that minimum is the fewest contexts whose removal leaves the
set colorable, and it is >= 1 exactly when the set is KS.
"""
from __future__ import annotations

from itertools import combinations
from typing import Mapping, NamedTuple, Optional

from .model import KsSet, build_stats, orthogonal

BRUTE_FORCE_LIMIT = 25


class Violation(NamedTuple):
    kind: str
    message: str
    context_index: Optional[int] = None
    vector_ids: tuple[str, ...] = ()


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]


def validate_orthogonality(ks: KsSet) -> ValidationReport:
    """Full mathematical validation; every violation is reported, none raised.

    Checks the vector list for projective duplicates, then each context for
    repeats and exact pairwise orthogonality.  Vectors are grouped by ray key,
    and every duplicate pair is reported in declaration order.  Structural
    problems (undeclared ids, wrong component counts, zero vectors) cannot
    occur in a constructed KsSet.
    """
    violations: list[Violation] = []
    rays: dict[tuple[int, ...], list[int]] = {}
    for i, v in enumerate(ks.vectors):
        rays.setdefault(v.key, []).append(i)
    for i, j in sorted(p for group in rays.values() for p in combinations(group, 2)):
        u, v = ks.vectors[i], ks.vectors[j]
        violations.append(
            Violation("duplicate-ray", f"{u.id!r} and {v.id!r} are the same ray", None, (u.id, v.id))
        )
    seen: dict[frozenset, int] = {}
    for ci, ctx in enumerate(ks.contexts):
        key = frozenset(ctx.vector_ids)
        if key in seen:
            violations.append(
                Violation(
                    "duplicate-context",
                    f"context {ci} repeats context {seen[key]}",
                    ci,
                    tuple(ctx.vector_ids),
                )
            )
        else:
            seen[key] = ci
        for a, b in combinations(ctx.vector_ids, 2):
            if not orthogonal(ks.vector(a), ks.vector(b)):
                violations.append(
                    Violation("non-orthogonal", f"context {ci}: {a}·{b} != 0", ci, (a, b))
                )
    return ValidationReport(ok=not violations, violations=tuple(violations))


class ColoringResult(NamedTuple):
    """Outcome of a colorability search.

    ``nodes`` is the search certificate: branch nodes expanded by the
    backtracker, or assignments enumerated by the brute-force oracle.
    ``solutions`` is only counted by the brute-force oracle.
    """

    satisfiable: bool
    assignment: Optional[dict[str, int]]
    nodes: int
    solutions: Optional[int] = None


def _index_contexts(ks: KsSet) -> tuple[list[str], list[list[int]]]:
    order = [v.id for v in ks.vectors]
    pos = {vid: i for i, vid in enumerate(order)}
    return order, [[pos[vid] for vid in ctx.vector_ids] for ctx in ks.contexts]


def find_coloring(ks: KsSet) -> ColoringResult:
    """Backtracking search for a non-contextual 0/1 coloring.

    Each step takes the undecided context with the fewest zero options
    (declaration order breaking ties) and sets its free rays: one takes the
    zero, the rest take 1.  A context that already holds its zero has one
    option, all free rays 1, so it is taken before any real branch.  A context
    with two zeros, or with no zero left possible, is a conflict: the newest
    context on the trail moves to its next option, or is undone once it has
    none left.  Each context taken is one node, and the node count makes
    unsatisfiability certificates reproducible.
    """
    order, ctxs = _index_contexts(ks)
    val: list[Optional[int]] = [None] * len(order)
    decided = [False] * len(ctxs)
    # (context, its free rays when taken, zero options left to try)
    trail: list[tuple[int, list[int], list[Optional[int]]]] = []
    nodes = 0
    while True:
        best = None
        for ci, ctx in enumerate(ctxs):
            if decided[ci]:
                continue
            free, zeros = [], 0
            for vi in ctx:
                if val[vi] is None:
                    free.append(vi)
                elif val[vi] == 0:
                    zeros += 1
            if zeros > 1 or not (zeros or free):
                break  # a conflict
            options = [None] if zeros else free[::-1]  # popped from the end
            if best is None or len(options) < len(best[2]):
                best = (ci, free, options)
        else:
            if best is None:  # every context decided; rays outside every context are 1
                return ColoringResult(True, {vid: int(v != 0) for vid, v in zip(order, val)}, nodes)
            nodes += 1
            decided[best[0]] = True
            trail.append(best)
        while trail and not trail[-1][2]:  # undo contexts with no option left
            ci, free, _ = trail.pop()
            decided[ci] = False
            for vi in free:
                val[vi] = None
        if not trail:
            return ColoringResult(False, None, nodes)
        _, free, options = trail[-1]  # the newest context takes its next option
        zero_at = options.pop()
        for vi in free:
            val[vi] = int(vi != zero_at)


def brute_force_coloring(ks: KsSet) -> ColoringResult:
    """Independent oracle: enumerate all 2^n vector assignments (n <= 25)."""
    import numpy as np

    order, ctxs = _index_contexts(ks)
    n = len(order)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"set too large for 2^n enumeration (n={n} > {BRUTE_FORCE_LIMIT})")
    d = ks.dimension
    masks = np.array([sum(1 << vi for vi in ctx) for ctx in ctxs], dtype=np.uint64)
    want = np.uint64(d - 1)
    total = 1 << n
    chunk = 1 << 20
    solutions = 0
    first: Optional[int] = None
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        xs = np.arange(lo, hi, dtype=np.uint64)
        ok = np.ones(hi - lo, dtype=bool)
        for mask in masks:
            ok &= np.bitwise_count(xs & mask) == want
        hit = int(np.count_nonzero(ok))
        solutions += hit
        if hit and first is None:
            first = lo + int(np.argmax(ok))
    if first is None:
        return ColoringResult(False, None, total, solutions=0)
    assignment = {order[i]: (first >> i) & 1 for i in range(n)}
    return ColoringResult(True, assignment, total, solutions=solutions)


SlotAssignment = Mapping[tuple[int, int], int]


class DefectReport(NamedTuple):
    """Minimum combined violation count over all contextual slot assignments.

    ``witness`` maps every (context, position) slot to 0/1.  It is always a
    per-vector coloring: every slot of a ray holds the ray's value, so
    ``connection_defects`` is 0 and ``sum_defects`` equals ``d_min``.
    ``nodes`` counts the ``find_coloring`` nodes spent on the probes that drop
    two or more contexts; it is 0 whenever ``d_min <= 1``.
    """

    d_min: int
    witness: dict[tuple[int, int], int]
    sum_defects: int
    connection_defects: int
    nodes: int


def assignment_defect(ks: KsSet, slots: SlotAssignment) -> tuple[int, int]:
    """(wrong-sum contexts, disagreeing connections) of a total slot assignment.

    Connections are the all-pairs list from build_stats; an m_override never
    changes which agreements are counted.
    """
    stats = build_stats(ks)
    d = ks.dimension
    sum_defects = 0
    for ci, ctx in enumerate(ks.contexts):
        s = sum(slots[(ci, p)] for p in range(d))
        if s != d - 1:
            sum_defects += 1
    pos_in_ctx = [{vid: p for p, vid in enumerate(ctx.vector_ids)} for ctx in ks.contexts]
    connection_defects = 0
    for vid, (a, b) in stats.connections:
        if slots[(a, pos_in_ctx[a][vid])] != slots[(b, pos_in_ctx[b][vid])]:
            connection_defects += 1
    return sum_defects, connection_defects


def _slots_from_vector_assignment(ks: KsSet, assignment: Mapping[str, int]) -> dict:
    return {
        (ci, p): int(assignment[vid])
        for ci, ctx in enumerate(ks.contexts)
        for p, vid in enumerate(ctx.vector_ids)
    }


def min_defect(ks: KsSet) -> DefectReport:
    """Exact minimum defect: the fewest contexts whose removal leaves the set
    colorable.

    For k = 0, 1, 2, ... each k-subset of contexts is dropped in lexicographic
    order and ``find_coloring`` runs on the rest; the first colorable
    remainder gives ``d_min = k``, and its coloring's slots are the witness.
    k = 0 is the set itself, so a colorable set has ``d_min = 0``.

    Why this minimum over drops equals the minimum over all contextual slot
    assignments of (wrong sums + disagreeing connections):

    * (<=) A coloring of a remainder that drops k contexts agrees on every
      connection, so at most k sums break; exactly k do, or a smaller drop
      would have been colorable.
    * (>=) Take any slot assignment with s wrong sums and c split
      connections.  Drop the s broken contexts and, for each ray whose slots
      disagree, the contexts on its smaller value side: a ray with a zeros and
      b ones has a*b split connections and needs min(a, b) <= a*b drops.  What
      is left is a valid coloring of a remainder dropping at most s + c
      contexts, so s + c >= k.

    The probes at k = 0 and k = 1 are the colorability proof and its
    drop-one witness; ``nodes`` counts only the search beyond them.  Level k
    runs up to C(N, k) probes, and no effort limit applies yet.
    """
    n_ctx = len(ks.contexts)
    nodes = 0
    for k in range(n_ctx + 1):
        for drop in combinations(range(n_ctx), k):
            kept = tuple(c for i, c in enumerate(ks.contexts) if i not in drop)
            found = find_coloring(ks._replace(contexts=kept, m_override=None))
            if k >= 2:
                nodes += found.nodes
            if found.satisfiable:
                assert found.assignment is not None
                witness = _slots_from_vector_assignment(ks, found.assignment)
                s, c = assignment_defect(ks, witness)
                if (s, c) != (k, 0):  # a raise, not an assert, so it holds under -O
                    raise AssertionError(f"witness has defect ({s}, {c}), expected ({k}, 0)")
                return DefectReport(k, witness, s, c, nodes)
    raise AssertionError("unreachable: a set without contexts is colorable")
