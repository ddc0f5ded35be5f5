"""Print every pinned parse outcome, one JSON line each.

Usage, from anywhere:

    python3 tools/parse_outcomes.py > outcomes.jsonl

The documents are the bundled catalog sets, a small Q(sqrt 2) set and every
single-token mutant of each (see :func:`single_token_mutants`), in a fixed
order from a fixed seed, then every line mutant of each (see
:func:`line_mutants`).  An outcome is the canonical document and every ray
key of an accepted document, or the error's type, message and line of a
rejected one.  The package is imported from this checkout's
``src`` and the Q(sqrt 2) set from its ``tests/conftest.py`` (which needs
pytest), so ``diff`` of two checkouts' outputs shows which outcomes a change
moved; ``tests/test_format.py`` pins the SHA-256 of the output.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # this checkout's package and test data

import ksbound as kb  # noqa: E402
from conftest import SURD_SET  # noqa: E402
from ksbound import parse_document, serialize_set  # noqa: E402


def single_token_mutants(text: str, rng: random.Random) -> Iterator[str]:
    """Every single-token edit of ``text``'s code tokens that changes them:
    at each token, replace it, delete it, duplicate it and insert before it,
    the replacement and the insertion drawn from a junk list by ``rng``."""
    junk = ["0", "1", "-1", "2", "0:1", "0:-1", "1/2", "99", "x9", "v1", "1/0",
            "1:1", "1:1:1", "1.5", "²", "7" * 4301, "vec", "ctx", "dim", "q!"]
    lines = text.splitlines()
    for i, line in enumerate(lines):
        before = line.split("#", 1)[0].split()
        for j in range(len(before)):
            edits = (
                before[:j] + [rng.choice(junk)] + before[j + 1:],
                before[:j] + before[j + 1:],
                before[:j] + [before[j]] + before[j:],
                before[:j] + [rng.choice(junk)] + before[j:],
            )
            for tokens in edits:
                if tokens != before:
                    yield "\n".join(lines[:i] + [" ".join(tokens)] + lines[i + 1:]) + "\n"


def line_mutants(text: str) -> Iterator[str]:
    """Every line-level edit of ``text``'s code lines: at each, delete it,
    duplicate it and swap it with the next line, if there is one."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.split("#", 1)[0].strip():
            continue
        edits = [lines[:i] + lines[i + 1:], lines[:i] + [line] + lines[i:]]
        if i + 1 < len(lines):
            edits.append(lines[:i] + [lines[i + 1], line] + lines[i + 2:])
        for edited in edits:
            yield "\n".join(edited) + "\n"


def parse_outcome(text: str) -> list:
    """What parsing ``text`` gives: the canonical document and every ray key,
    or the error's type, message and line."""
    try:
        ks = parse_document(text).ks_set
    except Exception as exc:  # any type is an outcome to pin
        return [type(exc).__name__, str(exc), getattr(exc, "line", None)]
    return [serialize_set(ks), [list(v.key) for v in ks.vectors]]


def outcome_lines() -> Iterator[str]:
    """The JSON line of each outcome, over the catalog sets, the Q(sqrt 2)
    set and all their single-token mutants, then all their line mutants, in
    order."""
    rng = random.Random(1313)
    texts = [kb.catalog_text(name) for name in kb.list_catalog()] + [SURD_SET]
    for text in texts:
        for doc in (text, *single_token_mutants(text, rng)):
            yield json.dumps(parse_outcome(doc)) + "\n"
    for text in texts:
        for doc in line_mutants(text):
            yield json.dumps(parse_outcome(doc)) + "\n"


if __name__ == "__main__":
    sys.stdout.writelines(outcome_lines())
