"""Line-oriented text format for KS sets (``ksset 1``), parser and serializer.

Grammar (one directive per line, ``#`` starts a comment, blank lines are
ignored, UTF-8; a line ends at LF, CRLF or CR and nowhere else):

    ksset 1                         first non-blank line, format version
    name <identifier>               required, once
    dim <integer >= 3>              required, once, before any vec
    field sqrt <square-free k>      optional, default 1, k <= 10**9, before any vec
    vec <id> <comp> ... <comp>      exactly d components
    ctx <id> ... <id>               exactly d previously declared ids
    m-override <integer>            optional, at most once

A component is either a rational ``p`` / ``p/q`` or ``p/q:r/s`` meaning
p/q + (r/s)*sqrt(k).  Every diagnostic carries the offending line number.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import NamedTuple, Optional

from .model import (
    Context,
    ExactScalar,
    KsSet,
    RayVector,
    _keys_orthogonal,
    check_context,
    check_dimension,
    check_radicand,
    check_vector,
)

_IDENT = re.compile(r"^[A-Za-z0-9_.-]+$")
_RATIONAL = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")
_DIGITS = re.compile(r"[0-9]+")  # str.isdigit would admit '²', which int() refuses
_CATALOG = Path(__file__).with_name("catalog")


class ParseError(ValueError):
    """A diagnostic tied to a 1-based line number of the input document."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.message = message
        self.line = line


class SetDocument(NamedTuple):
    """A parsed document: the set it declares, read as ``.ks_set``."""

    ks_set: KsSet


def _parse_rational(token: str) -> Fraction:
    if not _RATIONAL.match(token):
        raise ValueError(f"malformed rational {token!r}")
    if "/" in token:
        p, q = map(int, token.split("/"))  # int() refuses a digit string over its limit
        if q == 0:
            raise ValueError(f"zero denominator in {token!r}")
        return Fraction(p, q)
    return Fraction(int(token))


def _parse_component(token: str, radicand: int) -> ExactScalar:
    if token.count(":") > 1:
        raise ValueError(f"malformed component {token!r}")
    rat_tok, colon, surd_tok = token.partition(":")
    surd = _parse_rational(surd_tok) if colon else 0
    return ExactScalar(_parse_rational(rat_tok), surd, radicand)


def parse_document(text: str) -> SetDocument:
    """Parse a ``ksset 1`` document; raise :class:`ParseError` on any defect.

    Beyond the grammar itself, the parser enforces the set invariants that a
    document can break: two declarations of the same ray, repeated
    contexts, and contexts that are not pairwise orthogonal (checked
    exactly, on the ray keys).  Where the model enforces an invariant too
    (the dimension floor, the radicand, a surd part over Q, the zero vector,
    a vector's component count and repeated id, a context's length,
    repeated and undeclared ids), the model's own check runs, with its
    message; a ``vec`` line's count and id are checked before any of its
    components is parsed, so they stay the line's first error.  Every
    check raises ``ValueError``, and one handler attaches the line.  Rays
    are compared through their canonical keys
    (:func:`ksbound.model.same_ray`), so a duplicate is one dict lookup.
    Each distinct component token is parsed once per document and its scalar
    shared by every vector that repeats it: ``field`` precedes every
    ``vec``, so a token always means the same scalar.
    """
    # str.splitlines would also end a line at \x0b, \x0c, \x1c-\x1e, \x85, U+2028, U+2029
    raw_lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not raw_lines[-1]:
        raw_lines.pop()  # a final line end closes the last line; it opens no new one
    version_seen = False
    name: Optional[str] = None
    dim: Optional[int] = None
    radicand = 1
    field_seen = False
    m_override: Optional[int] = None
    vectors: dict[str, RayVector] = {}
    scalars: dict[str, ExactScalar] = {}  # each distinct component token, parsed once
    ray_ids: dict[tuple[int, ...], str] = {}
    contexts: list[Context] = []
    ctx_key_seen: dict[frozenset, int] = {}

    last_line = max(1, len(raw_lines))
    for lineno, raw in enumerate(raw_lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        directive = tokens[0]
        try:
            if not version_seen:
                if tokens != ["ksset", "1"]:
                    raise ValueError(f"expected 'ksset 1' header, got {stripped!r}")
                version_seen = True
            elif directive == "name":
                if len(tokens) != 2 or not _IDENT.match(tokens[1]):
                    raise ValueError("name takes one identifier")
                if name is not None:
                    raise ValueError("duplicate name directive")
                name = tokens[1]
            elif directive == "dim":
                if len(tokens) != 2 or not _DIGITS.fullmatch(tokens[1]):
                    raise ValueError("dim takes one integer")
                if dim is not None:
                    raise ValueError("duplicate dim directive")
                dim = int(tokens[1])
                check_dimension(dim)
            elif directive == "field":
                if len(tokens) != 3 or tokens[1] != "sqrt" or not _DIGITS.fullmatch(tokens[2]):
                    raise ValueError("field directive must read 'field sqrt <k>'")
                if field_seen:
                    raise ValueError("duplicate field directive")
                if vectors:
                    raise ValueError("field must be declared before any vec")
                radicand = int(tokens[2])
                check_radicand(radicand)
                field_seen = True
            elif directive == "vec":
                if dim is None:
                    raise ValueError("dim must be declared before any vec")
                if len(tokens) < 2:
                    raise ValueError("vec needs an id and components")
                vid = tokens[1]
                if not _IDENT.match(vid):
                    raise ValueError(f"malformed vector id {vid!r}")
                comps = tokens[2:]
                check_vector(vid, comps, dim, vectors)  # before any token is parsed
                for c in comps:  # a bad token raises at its first occurrence
                    if c not in scalars:
                        scalars[c] = _parse_component(c, radicand)
                vec = RayVector(vid, tuple(map(scalars.__getitem__, comps)))
                known = ray_ids.setdefault(vec.key, vid)
                if known != vid:
                    raise ValueError(f"duplicate ray: {vid!r} is a scalar multiple of {known!r}")
                vectors[vid] = vec
            elif directive == "ctx":
                if dim is None:
                    raise ValueError("dim must be declared before any ctx")
                ids = tokens[1:]
                check_context(ids, dim, vectors)
                ctx = Context(tuple(ids))
                key = frozenset(ids)
                if key in ctx_key_seen:
                    raise ValueError(
                        f"duplicate context (same vectors as line {ctx_key_seen[key]})"
                    )
                # every vector has dim components over the field's ring, so only
                # the keys are tested
                for a, b in combinations(ids, 2):
                    if not _keys_orthogonal(vectors[a].key, vectors[b].key, radicand):
                        raise ValueError(f"context not orthogonal ({a}·{b} != 0)")
                ctx_key_seen[key] = lineno
                contexts.append(ctx)
            elif directive == "m-override":
                if len(tokens) != 2 or not _DIGITS.fullmatch(tokens[1]):
                    raise ValueError("m-override takes one non-negative integer")
                if m_override is not None:
                    raise ValueError("duplicate m-override directive")
                m_override = int(tokens[1])
            else:
                raise ValueError(f"unknown directive {directive!r}")
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc

    if not version_seen:
        raise ParseError("missing 'ksset 1' header", last_line)
    if name is None:
        raise ParseError("missing name directive", last_line)
    if dim is None:
        raise ParseError("missing dim directive", last_line)

    return SetDocument(KsSet(
        name=name,
        dimension=dim,
        ring_radicand=radicand,
        vectors=tuple(vectors.values()),
        contexts=tuple(contexts),
        m_override=m_override,
    ))


def _format_component(c: ExactScalar) -> str:
    return str(c.rational) if c.surd == 0 else f"{c.rational}:{c.surd}"


def serialize_set(ks: KsSet) -> str:
    """Canonical document for a set; ``parse_document`` of the result round-trips."""
    lines = ["ksset 1", f"name {ks.name}", f"dim {ks.dimension}"]
    if ks.ring_radicand != 1:
        lines.append(f"field sqrt {ks.ring_radicand}")
    for v in ks.vectors:
        lines.append(f"vec {v.id} " + " ".join(_format_component(c) for c in v.components))
    for ctx in ks.contexts:
        lines.append("ctx " + " ".join(ctx.vector_ids))
    if ks.m_override is not None:
        lines.append(f"m-override {ks.m_override}")
    return "\n".join(lines) + "\n"


def list_catalog() -> tuple[str, ...]:
    """Names of the bundled catalog sets."""
    return tuple(sorted(entry.stem for entry in _CATALOG.glob("*.ksset")))


def catalog_text(name: str) -> str:
    """Raw document text of a bundled catalog set."""
    if not _IDENT.match(name):
        raise ValueError(f"unknown catalog set {name!r}")
    entry = _CATALOG / f"{name}.ksset"
    if not entry.is_file():
        raise ValueError(
            f"unknown catalog set {name!r}; available: {', '.join(list_catalog())}"
        )
    return entry.read_text(encoding="utf-8")


def load_catalog(name: str) -> KsSet:
    """Load a bundled set, ``parse_document(catalog_text(name)).ks_set``.

    A broken bundled file is a packaging defect, not a user error, so it
    raises :class:`ParseError` rather than returning a report.  The parser
    rejects every violation that ``validate_orthogonality`` reports (a
    repeated ray, a repeated context, a context that is not orthogonal), so
    no second check runs.
    """
    return parse_document(catalog_text(name)).ks_set
