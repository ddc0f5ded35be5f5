"""Colorability and minimum-defect search for KS sets.

A *coloring* assigns 0 or 1 to every ray so that each context has exactly
one zero (value sum d-1).  A KS set is one admitting no such assignment.
``min_defect`` generalizes this to contextual slot assignments, minimizing
the number of violated constraints (wrong context sums plus disagreeing
connections); its minimum is >= 1 exactly when the set is KS.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Optional

import numpy as np

from .model import Context, KsSet, SetStats, build_stats, orthogonal

BRUTE_FORCE_LIMIT = 25


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    context_index: Optional[int] = None
    vector_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
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


@dataclass(frozen=True)
class ColoringResult:
    """Outcome of a colorability search.

    ``nodes`` is the search certificate: branch nodes expanded by the
    backtracker, or assignments enumerated by the brute-force oracle.
    ``solutions`` is only counted by the brute-force oracle.
    """

    satisfiable: bool
    assignment: Optional[dict[str, int]]
    nodes: int
    solutions: Optional[int] = None


def _index_contexts(ks: KsSet) -> tuple[list[str], dict[str, int], list[list[int]]]:
    order = [v.id for v in ks.vectors]
    pos = {vid: i for i, vid in enumerate(order)}
    ctxs = [[pos[vid] for vid in ctx.vector_ids] for ctx in ks.contexts]
    return order, pos, ctxs


def find_coloring(ks: KsSet) -> ColoringResult:
    """Backtracking search for a non-contextual 0/1 coloring.

    Branches on which ray of a context takes the zero, always expanding the
    most constrained undecided context first (fewest zero candidates,
    declaration order breaking ties), and propagating forced ones.  The node
    count makes unsatisfiability certificates reproducible.
    """
    order, _, ctxs = _index_contexts(ks)
    n = len(order)
    n_ctx = len(ctxs)
    val: list[Optional[int]] = [None] * n
    decided = [False] * n_ctx
    nodes = 0

    def candidates(ci: int) -> Optional[list[int]]:
        """Zero-slot options for an undecided context, or None when violated."""
        zeros = ones = 0
        free: list[int] = []
        for vi in ctxs[ci]:
            if val[vi] is None:
                free.append(vi)
            elif val[vi] == 0:
                zeros += 1
            else:
                ones += 1
        if zeros > 1:
            return None
        if zeros == 1:
            return free  # all remaining must be ones; no branching beyond that
        if not free:
            return None  # all ones, no zero possible
        return free

    def solve() -> bool:
        nonlocal nodes
        best_ci = -1
        best_key: Optional[tuple[int, int]] = None
        for ci in range(n_ctx):
            if decided[ci]:
                continue
            free = candidates(ci)
            if free is None:
                return False
            zeros_known = any(val[vi] == 0 for vi in ctxs[ci])
            width = 1 if zeros_known else len(free)
            key = (width, ci)
            if best_key is None or key < best_key:
                best_key, best_ci = key, ci
        if best_ci < 0:
            return True
        ci = best_ci
        nodes += 1
        free = candidates(ci)
        assert free is not None
        decided[ci] = True
        zeros_known = any(val[vi] == 0 for vi in ctxs[ci])
        options = [None] if zeros_known else free
        for zero_at in options:
            trail: list[int] = []
            ok = True
            for vi in ctxs[ci]:
                want = 0 if vi == zero_at else (val[vi] if val[vi] is not None else 1)
                if vi == zero_at and val[vi] == 1:
                    ok = False
                    break
                if val[vi] is None:
                    val[vi] = 0 if vi == zero_at else 1
                    trail.append(vi)
                elif val[vi] != want:
                    ok = False
                    break
            if ok and solve():
                return True
            for vi in trail:
                val[vi] = None
        decided[ci] = False
        return False

    if solve():
        for i in range(n):
            if val[i] is None:
                val[i] = 1  # rays outside every context are unconstrained
        return ColoringResult(True, {order[i]: int(val[i]) for i in range(n)}, nodes)
    return ColoringResult(False, None, nodes)


def brute_force_coloring(ks: KsSet) -> ColoringResult:
    """Independent oracle: enumerate all 2^n vector assignments (n <= 25)."""
    order, _, ctxs = _index_contexts(ks)
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


@dataclass(frozen=True)
class DefectReport:
    """Minimum combined violation count over all contextual slot assignments."""

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


def _drop_context(ks: KsSet, ci: int) -> KsSet:
    return KsSet(
        name=f"{ks.name}-minus-{ci}",
        dimension=ks.dimension,
        ring_radicand=ks.ring_radicand,
        vectors=ks.vectors,
        contexts=tuple(c for i, c in enumerate(ks.contexts) if i != ci),
        m_override=None,
    )


def min_defect(ks: KsSet) -> DefectReport:
    """Exact minimum defect, with a branch-and-bound only where it is needed.

    A satisfying coloring, when one exists, is a defect-0 witness.  Otherwise
    the set is uncolorable, so d_min >= 1, and a coloring of the set minus
    one context (drop-one probe, in declaration order) breaks only that
    context's sum: it is an optimal defect-1 witness, returned with
    ``nodes=0`` because no branch-and-bound node was expanded.

    Only when no drop-one subset is colorable does the search run: contexts
    are assigned complete slot patterns in declaration order, starting from
    independent per-context patterns as the incumbent.  The cost already
    incurred (wrong sums plus disagreements among assigned contexts) is an
    admissible bound because future constraints can only add defects.
    Patterns at each level are tried cheapest-first with index ties broken
    low-first, and the incumbent is replaced only on strict improvement,
    which makes the returned witness deterministic.
    """
    d = ks.dimension
    n_ctx = len(ks.contexts)
    _, _, ctxs = _index_contexts(ks)

    base = find_coloring(ks)
    if base.satisfiable:
        assert base.assignment is not None
        witness = _slots_from_vector_assignment(ks, base.assignment)
        return DefectReport(0, witness, 0, 0, nodes=0)

    for drop in range(n_ctx):
        sub = find_coloring(_drop_context(ks, drop))
        if sub.satisfiable:
            assert sub.assignment is not None
            witness = _slots_from_vector_assignment(ks, sub.assignment)
            s, c = assignment_defect(ks, witness)
            assert (s, c) == (1, 0)
            return DefectReport(1, witness, s, c, nodes=0)

    # independent per-context patterns: zero in slot 0, ones elsewhere
    best_witness = {
        (ci, p): (0 if p == 0 else 1) for ci in range(n_ctx) for p in range(d)
    }
    best = sum(assignment_defect(ks, best_witness))

    # connection structure for incremental costs: earlier slots per vector
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for ci, ctx in enumerate(ctxs):
        for p, vi in enumerate(ctx):
            occurrences.setdefault(vi, []).append((ci, p))

    patterns = list(range(1 << d))
    sumdef = [0 if bin(p).count("1") == d - 1 else 1 for p in patterns]
    assigned: list[list[int]] = [[0] * d for _ in range(n_ctx)]
    nodes = 0

    def search(ci: int, incurred: int) -> None:
        nonlocal best, best_witness, nodes
        if incurred >= best:
            return
        if ci == n_ctx:
            witness = {
                (c, p): assigned[c][p] for c in range(n_ctx) for p in range(d)
            }
            best, best_witness = incurred, witness
            return
        nodes += 1
        # per-slot cost of value 0 / value 1 against earlier assignments
        cost0 = [0] * d
        cost1 = [0] * d
        for p, vi in enumerate(ctxs[ci]):
            for cj, q in occurrences[vi]:
                if cj >= ci:
                    break
                w = assigned[cj][q]
                if w == 0:
                    cost1[p] += 1
                else:
                    cost0[p] += 1
        scored = []
        for pat in patterns:
            inc = sumdef[pat]
            for p in range(d):
                inc += cost1[p] if (pat >> p) & 1 else cost0[p]
            scored.append((inc, pat))
        scored.sort()
        for inc, pat in scored:
            if incurred + inc >= best:
                break
            row = assigned[ci]
            for p in range(d):
                row[p] = (pat >> p) & 1
            search(ci + 1, incurred + inc)

    search(0, 0)
    s, c = assignment_defect(ks, best_witness)
    assert s + c == best
    return DefectReport(best, best_witness, s, c, nodes=nodes)
