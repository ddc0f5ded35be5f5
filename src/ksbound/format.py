"""Line-oriented text format for KS sets (``ksset 1``), parser and serializer.

Grammar (one directive per line, ``#`` starts a comment, blank lines are
ignored, UTF-8; a line ends at LF, CRLF or CR and nowhere else):

    ksset 1                         first non-blank line, format version
    name <identifier>               required, once
    dim <integer >= 3>              required, once, before any vec and any ctx
    field sqrt <square-free k>      optional, at most once, default 1, k <= 10**9,
                                    before any vec
    vec <id> <comp> ... <comp>      exactly d components
    ctx <id> ... <id>               exactly d previously declared ids
    m-override <integer >= 0>       optional, at most once

A component is either a rational ``p`` / ``p/q`` or ``p/q:r/s`` meaning
p/q + (r/s)*sqrt(k).  Every diagnostic carries the offending line number.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Any, NamedTuple

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

_IDENT_CHARS = "[A-Za-z0-9_.-]+"
_IDENT = re.compile(f"^{_IDENT_CHARS}$")
_RATIONAL = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")
_CATALOG = Path(__file__).with_name("catalog")

#: each header directive's one line shape, its value the group, and the message
#: for any other shape; [0-9], as \d and str.isdigit admit '²', which int() refuses
_HEADER_SHAPES = {
    "name": (re.compile(f"name ({_IDENT_CHARS})"), "name takes one identifier"),
    "dim": (re.compile("dim ([0-9]+)"), "dim takes one integer"),
    "field": (re.compile("field sqrt ([0-9]+)"), "field directive must read 'field sqrt <k>'"),
    "m-override": (re.compile("m-override ([0-9]+)"), "m-override takes one non-negative integer"),
}


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
    """The rational a ``p`` or ``p/q`` token names, as the ``Fraction`` of its
    one or two ``int()`` parts once the token has that shape.  ``q = 0`` and
    a digit string past Python's int limit (4300 digits by default) raise
    ValueError, the latter with ``int()``'s message.  ``Fraction(token)``
    reads the same numbers at over twice the cost of an integer token, about
    4 % of an ingest op."""
    if not _RATIONAL.match(token):
        raise ValueError(f"malformed rational {token!r}")
    try:
        return Fraction(*map(int, token.split("/")))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def _parse_component(token: str, radicand: int) -> ExactScalar:
    if token.count(":") > 1:
        raise ValueError(f"malformed component {token!r}")
    rat_tok, colon, surd_tok = token.partition(":")
    surd = _parse_rational(surd_tok) if colon else 0
    return ExactScalar(_parse_rational(rat_tok), surd, radicand)


def parse_document(text: str) -> SetDocument:
    """Parse a ``ksset 1`` document; raise :class:`ParseError` on any defect.

    The four header directives (``name``, ``dim``, ``field``,
    ``m-override``) fill one ``header`` record keyed by directive.  A
    header line must first take its directive's one shape, or gets that
    directive's message; only then is a directive already in the record a
    ``duplicate <directive> directive``.  ``dim`` must precede every
    ``vec`` and ``ctx``, and ``field`` every ``vec``.

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
    header: dict[str, Any] = {}  # the value of each header directive seen, by directive
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
            elif directive in _HEADER_SHAPES:
                shape, message = _HEADER_SHAPES[directive]
                match = shape.fullmatch(" ".join(tokens))
                if not match:
                    raise ValueError(message)
                if directive in header:
                    raise ValueError(f"duplicate {directive} directive")
                if directive == "field" and vectors:
                    raise ValueError("field must be declared before any vec")
                header[directive] = match[1] if directive == "name" else int(match[1])
                if directive == "dim":
                    check_dimension(header["dim"])
                elif directive == "field":
                    check_radicand(header["field"])
            elif directive not in ("vec", "ctx"):
                raise ValueError(f"unknown directive {directive!r}")
            elif "dim" not in header:
                raise ValueError(f"dim must be declared before any {directive}")
            elif directive == "vec":
                if len(tokens) < 2:
                    raise ValueError("vec needs an id and components")
                vid = tokens[1]
                if not _IDENT.match(vid):
                    raise ValueError(f"malformed vector id {vid!r}")
                comps = tokens[2:]
                check_vector(vid, comps, header["dim"], vectors)  # before any token is parsed
                for c in comps:  # a bad token raises at its first occurrence
                    if c not in scalars:
                        scalars[c] = _parse_component(c, header.get("field", 1))
                vec = RayVector(vid, tuple(map(scalars.__getitem__, comps)))
                known = ray_ids.setdefault(vec.key, vid)
                if known != vid:
                    raise ValueError(f"duplicate ray: {vid!r} is a scalar multiple of {known!r}")
                vectors[vid] = vec
            else:  # ctx
                ids = tokens[1:]
                check_context(ids, header["dim"], vectors)
                ctx = Context(tuple(ids))
                key = frozenset(ids)
                if key in ctx_key_seen:
                    raise ValueError(
                        f"duplicate context (same vectors as line {ctx_key_seen[key]})"
                    )
                # every vector has dim components over the field's ring, so only
                # the keys are tested
                radicand = header.get("field", 1)
                for a, b in combinations(ids, 2):
                    if not _keys_orthogonal(vectors[a].key, vectors[b].key, radicand):
                        raise ValueError(f"context not orthogonal ({a}·{b} != 0)")
                ctx_key_seen[key] = lineno
                contexts.append(ctx)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc

    if not version_seen:
        raise ParseError("missing 'ksset 1' header", last_line)
    for directive in ("name", "dim"):
        if directive not in header:
            raise ParseError(f"missing {directive} directive", last_line)

    return SetDocument(KsSet(
        name=header["name"],
        dimension=header["dim"],
        ring_radicand=header.get("field", 1),
        vectors=tuple(vectors.values()),
        contexts=tuple(contexts),
        m_override=header.get("m-override"),
    ))


def _format_component(c: ExactScalar) -> str:
    return str(c.rational) if c.surd == 0 else f"{c.rational}:{c.surd}"


def serialize_set(ks: KsSet) -> str:
    """Canonical document for a set; ``parse_document`` of the result round-trips.

    Raises ValueError, naming it, on the first of the set's name and vector
    ids that is not an identifier (a string of one or more of
    ``A-Z a-z 0-9 _ . -``): a ``name`` line would refuse a space, a ``#`` in
    an id would turn the rest of its ``vec`` and ``ctx`` lines into a
    comment, and a name or id of ``123`` would parse back as ``"123"``.
    """
    for ident in (ks.name, *(v.id for v in ks.vectors)):
        # not match: "$" also matches before a final "\n"
        if not (isinstance(ident, str) and _IDENT.fullmatch(ident)):
            raise ValueError(f"cannot serialize {ident!r}: not an identifier ({_IDENT_CHARS})")
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
