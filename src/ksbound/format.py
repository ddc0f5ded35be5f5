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

from .model import Context, ExactScalar, KsSet, RayVector, _keys_orthogonal, check_radicand

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
    """A parsed document: the set plus per-declaration source locations."""

    ks_set: KsSet
    source: str
    vec_lines: dict[str, int]
    ctx_lines: tuple[int, ...]


def _integer(token: str, line: int) -> int:
    """``int`` of a digit string; one longer than Python's digit limit is a ParseError."""
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


def _parse_rational(token: str, line: int) -> Fraction:
    if not _RATIONAL.match(token):
        raise ParseError(f"malformed rational {token!r}", line)
    if "/" in token:
        p, q = (_integer(t, line) for t in token.split("/"))
        if q == 0:
            raise ParseError(f"zero denominator in {token!r}", line)
        return Fraction(p, q)
    return Fraction(_integer(token, line))


def _parse_component(token: str, radicand: int, line: int) -> ExactScalar:
    if token.count(":") > 1:
        raise ParseError(f"malformed component {token!r}", line)
    if ":" in token:
        rat_tok, surd_tok = token.split(":")
        surd = _parse_rational(surd_tok, line)
        if radicand == 1 and surd != 0:
            raise ParseError(
                f"surd component {token!r} while the ring radicand is 1", line
            )
        return ExactScalar(_parse_rational(rat_tok, line), surd, radicand)
    return ExactScalar(_parse_rational(token, line), Fraction(0), radicand)


def parse_document(text: str, source: str = "<text>") -> SetDocument:
    """Parse a ``ksset 1`` document; raise :class:`ParseError` on any defect.

    Beyond the grammar itself, the parser enforces the set invariants that a
    document can break: duplicate vector ids, two declarations of the same
    ray, repeated contexts, references to undeclared ids, and contexts that
    are not pairwise orthogonal (checked exactly, on the ray keys).  Rays are
    compared through their canonical keys (:func:`ksbound.model.same_ray`),
    so a duplicate is one dict lookup.  Each distinct component token is
    parsed once per document and its scalar shared by every vector that
    repeats it: ``field`` precedes every ``vec``, so a token always means the
    same scalar.
    """
    # str.splitlines would also end a line at \x0b, \x0c, \x1c-\x1e, \x85, U+2028, U+2029
    raw_lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not raw_lines[-1]:
        raw_lines.pop()  # a final line end closes the last line; it opens no new one
    version_seen = False
    name: Optional[str] = None
    dim: Optional[int] = None
    radicand = 1
    field_line: Optional[int] = None
    m_override: Optional[int] = None
    vectors: dict[str, RayVector] = {}
    scalars: dict[str, ExactScalar] = {}  # each distinct component token, parsed once
    ray_ids: dict[tuple[int, ...], str] = {}
    vec_lines: dict[str, int] = {}
    contexts: list[Context] = []
    ctx_lines: list[int] = []
    ctx_key_seen: dict[frozenset, int] = {}

    last_line = max(1, len(raw_lines))
    for lineno, raw in enumerate(raw_lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if not version_seen:
            if tokens != ["ksset", "1"]:
                raise ParseError(f"expected 'ksset 1' header, got {stripped!r}", lineno)
            version_seen = True
            continue
        directive = tokens[0]

        if directive == "name":
            if len(tokens) != 2 or not _IDENT.match(tokens[1]):
                raise ParseError("name takes one identifier", lineno)
            if name is not None:
                raise ParseError("duplicate name directive", lineno)
            name = tokens[1]
        elif directive == "dim":
            if len(tokens) != 2 or not _DIGITS.fullmatch(tokens[1]):
                raise ParseError("dim takes one integer", lineno)
            if dim is not None:
                raise ParseError("duplicate dim directive", lineno)
            dim = _integer(tokens[1], lineno)
            if dim < 3:
                raise ParseError(f"dim must be >= 3, got {dim}", lineno)
        elif directive == "field":
            if len(tokens) != 3 or tokens[1] != "sqrt" or not _DIGITS.fullmatch(tokens[2]):
                raise ParseError("field directive must read 'field sqrt <k>'", lineno)
            if field_line is not None:
                raise ParseError("duplicate field directive", lineno)
            if vectors:
                raise ParseError("field must be declared before any vec", lineno)
            radicand = _integer(tokens[2], lineno)
            try:
                check_radicand(radicand)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            field_line = lineno
        elif directive == "vec":
            if dim is None:
                raise ParseError("dim must be declared before any vec", lineno)
            if len(tokens) < 2:
                raise ParseError("vec needs an id and components", lineno)
            vid = tokens[1]
            if not _IDENT.match(vid):
                raise ParseError(f"malformed vector id {vid!r}", lineno)
            comps = tokens[2:]
            if len(comps) != dim:
                raise ParseError(
                    f"vector {vid!r} has {len(comps)} components, expected {dim}", lineno
                )
            if vid in vec_lines:
                raise ParseError(f"duplicate vector id {vid!r}", lineno)
            for c in comps:  # a bad token raises at its first occurrence
                if c not in scalars:
                    scalars[c] = _parse_component(c, radicand, lineno)
            try:
                vec = RayVector(vid, tuple(map(scalars.__getitem__, comps)))
            except ValueError as exc:  # the zero vector
                raise ParseError(str(exc), lineno) from exc
            known = ray_ids.setdefault(vec.key, vid)
            if known != vid:
                raise ParseError(
                    f"duplicate ray: {vid!r} is a scalar multiple of {known!r}", lineno
                )
            vectors[vid] = vec
            vec_lines[vid] = lineno
        elif directive == "ctx":
            if dim is None:
                raise ParseError("dim must be declared before any ctx", lineno)
            ids = tokens[1:]
            if len(ids) != dim:
                raise ParseError(f"context has {len(ids)} ids, expected {dim}", lineno)
            if len(set(ids)) != len(ids):
                raise ParseError("context repeats a vector id", lineno)
            for vid in ids:
                if vid not in vec_lines:
                    raise ParseError(f"context references undeclared vector id {vid!r}", lineno)
            key = frozenset(ids)
            if key in ctx_key_seen:
                raise ParseError(
                    f"duplicate context (same vectors as line {ctx_key_seen[key]})", lineno
                )
            # every vector has dim components over the field's ring, so only
            # the keys are tested
            for a, b in combinations(ids, 2):
                if not _keys_orthogonal(vectors[a].key, vectors[b].key, radicand):
                    raise ParseError(f"context not orthogonal ({a}·{b} != 0)", lineno)
            ctx_key_seen[key] = lineno
            contexts.append(Context(tuple(ids)))
            ctx_lines.append(lineno)
        elif directive == "m-override":
            if len(tokens) != 2 or not _DIGITS.fullmatch(tokens[1]):
                raise ParseError("m-override takes one non-negative integer", lineno)
            if m_override is not None:
                raise ParseError("duplicate m-override directive", lineno)
            m_override = _integer(tokens[1], lineno)
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)

    if not version_seen:
        raise ParseError("missing 'ksset 1' header", last_line)
    if name is None:
        raise ParseError("missing name directive", last_line)
    if dim is None:
        raise ParseError("missing dim directive", last_line)

    ks = KsSet(
        name=name,
        dimension=dim,
        ring_radicand=radicand,
        vectors=tuple(vectors.values()),
        contexts=tuple(contexts),
        m_override=m_override,
    )
    return SetDocument(
        ks_set=ks,
        source=source,
        vec_lines=vec_lines,
        ctx_lines=tuple(ctx_lines),
    )


def parse_set(text: str) -> KsSet:
    """Parse a document and return just the set (see :func:`parse_document`)."""
    return parse_document(text).ks_set


def _format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _format_component(c: ExactScalar) -> str:
    if c.surd == 0:
        return _format_fraction(c.rational)
    return f"{_format_fraction(c.rational)}:{_format_fraction(c.surd)}"


def serialize_set(ks: KsSet) -> str:
    """Canonical document for a set; ``parse_set`` of the result round-trips."""
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
    """Load and fully validate a bundled set.

    A validation failure here is a packaging defect, not a user error, so it
    raises RuntimeError rather than returning a report.
    """
    from .coloring import validate_orthogonality

    ks = parse_set(catalog_text(name))
    report = validate_orthogonality(ks)
    if not report.ok:
        raise RuntimeError(
            f"bundled catalog set {name!r} failed validation: "
            + "; ".join(v.message for v in report.violations)
        )
    return ks
