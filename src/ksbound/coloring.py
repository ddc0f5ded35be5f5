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
from typing import NamedTuple, Optional, Sequence

from .model import KsSet, check_integer, incidence


class Violation(NamedTuple):
    message: str


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]


def validate_orthogonality(ks: KsSet) -> ValidationReport:
    """Re-run :class:`KsSet`'s checks on the set's fields, and report the
    first refusal as one :class:`Violation` rather than raising it.

    The constructor refuses a repeated ray, a repeated context and a
    context that is not orthogonal, and the parser feeds the same
    :class:`~ksbound.model.SetCheck`, so only a set made by ``_replace`` or
    ``_make`` can fail here.
    """
    try:
        KsSet(*ks)
    except ValueError as exc:
        return ValidationReport(ok=False, violations=(Violation(str(exc)),))
    return ValidationReport(ok=True, violations=())


class ColoringResult(NamedTuple):
    """Outcome of a colorability search.

    ``nodes`` is the search certificate: branch nodes expanded by the
    backtracker.
    """

    satisfiable: bool
    assignment: Optional[dict[str, int]]
    nodes: int


def find_coloring(ks: KsSet) -> ColoringResult:
    """Backtracking search for a non-contextual 0/1 coloring.

    Each step takes the undecided context with the fewest zero options
    (declaration order breaking ties) and sets its free rays: one takes the
    zero, the rest take 1.  A context that already holds its zero has one
    option, all free rays 1, so it is taken before any real branch.  A context
    with two zeros, or with no zero left possible, is a conflict: the newest
    context on the trail moves to its next option, or is undone once it has
    none left.  Each context taken is one node, and the node count makes
    unsatisfiability certificates reproducible.  Rays and contexts are read
    by position off the set's :class:`~ksbound.model.Incidence`.
    """
    ctxs = incidence(ks).contexts
    val: list[Optional[int]] = [None] * len(ks.vectors)
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
                found = {v.id: int(x != 0) for v, x in zip(ks.vectors, val)}
                return ColoringResult(True, found, nodes)
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


class DefectReport(NamedTuple):
    """Minimum combined violation count over all contextual slot assignments.

    ``witness`` holds one 0/1 value per slot, numbered as in the set's
    :class:`~ksbound.model.Incidence`: slot c*d + p is position p of context
    c.  It is always a per-vector coloring: every slot of a ray holds the
    ray's value, so ``assignment_defect(ks, witness)`` is ``(d_min, 0)``.
    ``nodes`` counts the ``find_coloring`` nodes spent on the probes that
    drop two or more contexts; it is 0 whenever ``d_min <= 1``.
    """

    d_min: int
    witness: tuple[int, ...]
    nodes: int


def assignment_defect(ks: KsSet, slots: Sequence[int]) -> tuple[int, int]:
    """(wrong-sum contexts, disagreeing connections) of a total slot assignment.

    ``slots`` holds one 0 or 1 per slot, numbered as in the set's
    :class:`~ksbound.model.Incidence`, so context c's sum is that of
    ``slots[c*d : c*d + d]``; any other length or value raises ValueError,
    and so does a 0 or 1 that is not an integer (:func:`check_integer`),
    such as ``1.0`` or ``True``.
    Connections are all pairs of a ray's slots, so a ray whose slots hold a
    zeros and b ones has a*b disagreeing ones; an m_override never changes
    which agreements are counted.
    """
    d = ks.dimension
    size = len(ks.contexts) * d
    if len(slots) != size:
        raise ValueError(f"{len(slots)} slot values for {size} slots")
    if not set(slots) <= {0, 1}:
        raise ValueError(f"slot values must be 0 or 1, got {set(slots) - {0, 1}}")
    for x in slots:
        check_integer(x, "slot value")
    sum_defects = sum(sum(slots[s : s + d]) != d - 1 for s in range(0, size, d))
    connection_defects = 0
    for at in incidence(ks).slots:
        ones = sum(slots[s] for s in at)
        connection_defects += ones * (len(at) - ones)
    return sum_defects, connection_defects


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
                witness = tuple(found.assignment[vid] for c in ks.contexts for vid in c.vector_ids)
                s, c = assignment_defect(ks, witness)
                if (s, c) != (k, 0):  # a raise, not an assert, so it holds under -O
                    raise AssertionError(f"witness has defect ({s}, {c}), expected ({k}, 0)")
                return DefectReport(k, witness, nodes)
    raise AssertionError("unreachable: a set without contexts is colorable")
