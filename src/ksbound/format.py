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
    m-override <integer >= M_cut>   optional, at most once, M_cut = (N*d - n1)/2
                                    for N contexts and n1 rays in exactly one

A component is either a rational ``p`` / ``p/q`` or ``p/q:r/s`` meaning
p/q + (r/s)*sqrt(k).  Every diagnostic carries the offending line number.
"""
from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import Any, NamedTuple

from .model import (
    _IDENT_CHARS,
    ExactScalar,
    KsSet,
    RayVector,
    SetCheck,
    check_dimension,
    check_radicand,
)

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

    Every invariant of a set is checked by one
    :class:`~ksbound.model.SetCheck`, the checker
    :class:`~ksbound.model.KsSet` feeds, with its messages: it is made at
    the first ``vec`` or ``ctx`` line and fed each such line.  It checks
    the dimension floor and the radicand (both checked at their own lines
    first), a vector's id, component count and repeated id, its ring and a
    second declaration of a ray, a context's length, undeclared and
    repeated ids, a repeated context and a context that is not pairwise
    orthogonal; the zero vector and a surd part over Q are refused as
    their components are read.  A ``vec`` line's id and count are checked
    before any of its components is parsed, so they stay the line's first
    error.  Every check raises ``ValueError``, and one handler attaches the
    line.  Once every line is read, an ``m-override`` below M_cut is
    refused at its own line, which may precede the contexts that fix
    M_cut.  The checker's state then makes the set through
    ``KsSet._make``, so no check runs twice.  Each distinct component token
    is parsed once per document and its scalar shared by every vector that
    repeats it: ``field`` precedes every ``vec``, so a token always means
    the same scalar.
    """
    # str.splitlines would also end a line at \x0b, \x0c, \x1c-\x1e, \x85, U+2028, U+2029
    raw_lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not raw_lines[-1]:
        raw_lines.pop()  # a final line end closes the last line; it opens no new one
    version_seen = False
    header: dict[str, Any] = {}  # the value of each header directive seen, by directive
    check: SetCheck | None = None  # made at the first vec or ctx line
    scalars: dict[str, ExactScalar] = {}  # each distinct component token, parsed once
    m_line = 0  # the m-override line

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
                if directive == "field" and check and check.vectors:
                    raise ValueError("field must be declared before any vec")
                header[directive] = match[1] if directive == "name" else int(match[1])
                if directive == "dim":
                    check_dimension(header["dim"])
                elif directive == "field":
                    check_radicand(header["field"])
                elif directive == "m-override":
                    m_line = lineno
            elif directive not in ("vec", "ctx"):
                raise ValueError(f"unknown directive {directive!r}")
            elif "dim" not in header:
                raise ValueError(f"dim must be declared before any {directive}")
            else:
                check = check or SetCheck(header["dim"], header.get("field", 1))
                if directive == "ctx":
                    check.context(tokens[1:], f"line {lineno}")
                elif len(tokens) < 2:
                    raise ValueError("vec needs an id and components")
                else:
                    vid, comps = tokens[1], tokens[2:]
                    check.declare(vid, comps)  # before any token is parsed
                    for c in comps:  # a bad token raises at its first occurrence
                        if c not in scalars:
                            scalars[c] = _parse_component(c, check.radicand)
                    check.vector(RayVector(vid, tuple(map(scalars.__getitem__, comps))))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc

    if not version_seen:
        raise ParseError("missing 'ksset 1' header", last_line)
    for directive in ("name", "dim"):
        if directive not in header:
            raise ParseError(f"missing {directive} directive", last_line)
    check = check or SetCheck(header["dim"], header.get("field", 1))
    try:
        check.m_override(header.get("m-override"), "m-override")
    except ValueError as exc:
        raise ParseError(str(exc), m_line) from exc

    return SetDocument(KsSet._make((
        header["name"], check.dimension, check.radicand,
        tuple(check.vectors.values()), tuple(check.contexts), header.get("m-override"),
    )))


def _format_component(c: ExactScalar) -> str:
    return str(c.rational) if c.surd == 0 else f"{c.rational}:{c.surd}"


def serialize_set(ks: KsSet) -> str:
    """Canonical document for a set; ``parse_document`` of the result
    round-trips, since :class:`~ksbound.model.KsSet` refuses what a document
    cannot hold."""
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
    if name not in list_catalog():
        raise ValueError(
            f"unknown catalog set {name!r}; available: {', '.join(list_catalog())}"
        )
    return (_CATALOG / f"{name}.ksset").read_text(encoding="utf-8")


def load_catalog(name: str) -> KsSet:
    """Load a bundled set, ``parse_document(catalog_text(name)).ks_set``.

    A broken bundled file is a packaging defect, not a user error, so it
    raises :class:`ParseError` at its line, as any document does.
    """
    return parse_document(catalog_text(name)).ks_set
