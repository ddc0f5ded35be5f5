"""Seeded single-token mutations of ``ksset 1`` documents.

Each mutation picks one token of one non-comment line and replaces, deletes,
duplicates it, or inserts a junk token before it, the same four edits the
format acceptance test (criterion 7) uses.  The junk alphabet adds
non-ASCII digits (``str.isdigit`` accepts them, ``int`` does not) so that
the parser's known integer-directive defect is exercised, not filtered out.

A corpus pass mutates every non-comment line of every document once, with
the four edits and the junk tokens dealt round-robin from a seeded offset,
so every pass has the same shape and about the same cost whatever the seed;
the seed picks the offsets and the token each edit hits.
"""
from __future__ import annotations

import random
from typing import Optional

JUNK = ("0", "1", "-1", "2", "99", "x9", "v1", "1/0", "1:1", "1.5", "vec",
        "ctx", "dim", "q!", "", "²", "³")
ACTIONS = ("replace", "delete", "duplicate", "insert")


def mutate_line(lines: list[str], i: int, rng: random.Random,
                action: Optional[str] = None, junk: Optional[str] = None) -> str:
    """The document with one single-token edit on line ``i`` (0-based).

    ``action`` and ``junk`` fix the first attempt's edit; an edit that
    leaves the line unchanged is redrawn at random.
    """
    tokens = lines[i].split("#", 1)[0].split()
    while True:
        edited = list(tokens)
        j = rng.randrange(len(edited))
        action = rng.choice(ACTIONS) if action is None else action
        junk = rng.choice(JUNK) if junk is None else junk
        if action == "replace":
            edited[j] = junk
        elif action == "delete":
            del edited[j]
        elif action == "duplicate":
            edited.insert(j, edited[j])
        else:
            edited.insert(j, junk)
        edited = [t for t in edited if t]
        if edited != tokens:
            out = list(lines)
            out[i] = " ".join(edited)
            return "\n".join(out) + "\n"
        action = junk = None


def _lines_by_kind(lines: list[str]) -> dict[str, list[int]]:
    """Indexes of the non-comment lines, grouped by their directive."""
    by_kind: dict[str, list[int]] = {}
    for i, line in enumerate(lines):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            by_kind.setdefault(tokens[0], []).append(i)
    return by_kind


def corpus_pass(texts: dict[str, str], rng: random.Random) -> list[tuple[str, str]]:
    """One pass: every valid document plus its mutants, as (label, text)."""
    docs = []
    for name, text in texts.items():
        lines = text.splitlines()
        docs.append((f"{name}:valid", text))
        a0, j0 = rng.randrange(len(ACTIONS)), rng.randrange(len(JUNK))
        targets = sorted(i for idx in _lines_by_kind(lines).values() for i in idx)
        for k, i in enumerate(targets):
            edit = ACTIONS[(a0 + k) % len(ACTIONS)], JUNK[(j0 + k) % len(JUNK)]
            docs.append((f"{name}:line{i + 1}", mutate_line(lines, i, rng, *edit)))
    return docs


def malformed(text: str, rng: random.Random) -> str:
    """One mutant of a document, on a line of a random directive kind."""
    lines = text.splitlines()
    by_kind = _lines_by_kind(lines)
    return mutate_line(lines, rng.choice(by_kind[rng.choice(sorted(by_kind))]), rng)
