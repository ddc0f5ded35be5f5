"""The ``ksset 1`` text format: grammar, diagnostics, round-trips, catalog."""
import sys
from fractions import Fraction

import pytest

import ksbound as kb
from ksbound import ParseError, parse_document, parse_set, serialize_set

GOOD = """\
ksset 1
name demo
dim 3
vec a 1 0 0
vec b 0 1 0
vec c 0 0 1
ctx a b c
"""


def parses(text):
    return parse_set(text)


def rejects(text, fragment, line=None):
    with pytest.raises(ParseError) as ei:
        parse_document(text)
    err = ei.value
    assert fragment in err.message, f"{fragment!r} not in {err.message!r}"
    assert isinstance(err.line, int) and err.line >= 1
    if line is not None:
        assert err.line == line, f"expected line {line}, got {err.line}"
    assert f"at line {err.line}" in str(err)
    return err


def test_minimal_document():
    ks = parses(GOOD)
    assert ks.name == "demo"
    assert ks.dimension == 3
    assert ks.ring_radicand == 1
    assert ks.m_override is None
    assert len(ks.vectors) == 3 and len(ks.contexts) == 1


def test_comments_blanks_and_crlf():
    text = "# leading comment\n\nksset 1\nname demo\ndim 3\nvec a 1 0 0 # axis\nvec b 0 1 0\nvec c 0 0 1\nctx a b c\n"
    ks = parses(text)
    assert ks.name == "demo"
    assert parses(text.replace("\n", "\r\n")) == ks


def test_document_locations():
    doc = parse_document(GOOD, source="demo.ksset")
    assert doc.source == "demo.ksset"
    assert doc.vec_lines == {"a": 4, "b": 5, "c": 6}
    assert doc.ctx_lines == (7,)


def test_rational_and_surd_components():
    text = """\
ksset 1
name surds
dim 3
field sqrt 2
vec a 1 0:1 0
vec b 0:-1 1 0
vec c 0 0 1/2
ctx a b c
"""
    ks = parses(text)
    assert ks.ring_radicand == 2
    a = ks.vector("a")
    assert a.components[1] == kb.ExactScalar.of(0, 1, 2)
    assert ks.vector("c").components[2] == kb.ExactScalar.of(Fraction(1, 2), 0, 2)


def test_error_in_seven_line_document_points_at_line_seven():
    text = """\
ksset 1
name demo
dim 3
vec a 1 0 0
vec b 1 1 0
vec c 0 0 1
ctx a b c
"""
    err = rejects(text, "context not orthogonal (a·b != 0)", line=7)
    assert err.line == 7


# --- header and directive-level diagnostics ---------------------------------


def test_header_required_first():
    rejects("name demo\n", "expected 'ksset 1' header", line=1)
    rejects("ksset 2\nname demo\n", "expected 'ksset 1' header", line=1)
    rejects("", "missing 'ksset 1' header", line=1)
    rejects("# only a comment\n", "missing 'ksset 1' header", line=1)


def test_name_directive_errors():
    rejects("ksset 1\nname\n", "name takes one identifier", line=2)
    rejects("ksset 1\nname a b\n", "name takes one identifier", line=2)
    rejects("ksset 1\nname de!mo\n", "name takes one identifier", line=2)
    rejects("ksset 1\nname x\nname y\n", "duplicate name", line=3)
    rejects("ksset 1\ndim 3\n", "missing name", line=2)


def test_dim_directive_errors():
    rejects("ksset 1\nname x\ndim\n", "dim takes one integer", line=3)
    rejects("ksset 1\nname x\ndim three\n", "dim takes one integer", line=3)
    rejects("ksset 1\nname x\ndim 2\n", "dim must be >= 3", line=3)
    for digit in ("²", "³", "٣"):  # superscripts, and a non-ASCII decimal
        rejects(f"ksset 1\nname x\ndim {digit}\n", "dim takes one integer", line=3)
    rejects("ksset 1\nname x\ndim 3\ndim 4\n", "duplicate dim", line=4)
    rejects("ksset 1\nname x\n", "missing dim", line=2)
    rejects("ksset 1\nname x\nvec a 1 0 0\n", "dim must be declared before any vec", line=3)
    rejects("ksset 1\nname x\nctx a b c\n", "dim must be declared before any ctx", line=3)


def test_field_directive_errors():
    rejects("ksset 1\nname x\ndim 3\nfield sqrt 8\n", "not a square-free", line=4)
    rejects("ksset 1\nname x\ndim 3\nfield 2\n", "field directive must read", line=4)
    rejects("ksset 1\nname x\ndim 3\nfield sqrt two\n", "field directive must read", line=4)
    for digit in ("²", "³", "٣"):
        rejects(f"ksset 1\nname x\ndim 3\nfield sqrt {digit}\n", "field directive must read", line=4)
    rejects(
        "ksset 1\nname x\ndim 3\nfield sqrt 2\nfield sqrt 3\n",
        "duplicate field",
        line=5,
    )
    rejects(
        "ksset 1\nname x\ndim 3\nvec a 1 0 0\nfield sqrt 2\n",
        "field must be declared before any vec",
        line=5,
    )


def test_radicand_limit():
    # 10**9 + 7 is prime; only its size refuses it
    limit = f"exceeds the limit {kb.MAX_RADICAND}"
    rejects("ksset 1\nname x\ndim 3\nfield sqrt 1000000007\n", limit, line=4)
    rejects("ksset 1\nname x\ndim 3\nfield sqrt 1000000000000000003\n", limit, line=4)
    ks = parses("ksset 1\nname x\ndim 3\nfield sqrt 999999937\nvec a 1 0 0:1\n")
    assert ks.ring_radicand == 999999937


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python's int() has no digit limit")
def test_integer_longer_than_the_digit_limit():
    # int() refuses more digits than the interpreter's limit; that is a diagnostic, not a crash
    digits = "3" * (sys.get_int_max_str_digits() + 1)
    rejects(f"ksset 1\nname x\ndim {digits}\n", "Exceeds the limit", line=3)
    rejects(f"ksset 1\nname x\ndim 3\nfield sqrt {digits}\n", "Exceeds the limit", line=4)
    rejects(f"ksset 1\nname x\ndim 3\nm-override {digits}\n", "Exceeds the limit", line=4)
    rejects(f"ksset 1\nname x\ndim 3\nvec a {digits} 0 0\n", "Exceeds the limit", line=4)


def test_vec_directive_errors():
    base = "ksset 1\nname x\ndim 3\n"
    rejects(base + "vec\n", "vec needs an id and components", line=4)
    rejects(base + "vec a$ 1 0 0\n", "malformed vector id", line=4)
    rejects(base + "vec a 1 0\n", "has 2 components, expected 3", line=4)
    rejects(base + "vec a 1 0 0\nvec a 0 1 0\n", "duplicate vector id", line=5)
    rejects(base + "vec a 1 0 0\nvec b 2 0 0\n", "duplicate ray", line=5)
    rejects(base + "vec z 0 0 0\n", "zero vector", line=4)


def test_component_errors():
    base = "ksset 1\nname x\ndim 3\n"
    rejects(base + "vec a 1.5 0 0\n", "malformed rational", line=4)
    rejects(base + "vec a 1/ 0 0\n", "malformed rational", line=4)
    rejects(base + "vec a 1/0 0 0\n", "zero denominator", line=4)
    rejects(base + "vec a 1:2:3 0 0\n", "malformed component", line=4)
    rejects(base + "vec a 1:1 0 0\n", "while the ring radicand is 1", line=4)
    for digit in ("٣", "３", "²"):  # only ASCII digits are components
        rejects(base + f"vec a {digit} 0 0\n", "malformed rational", line=4)
        rejects(base + f"vec a 1/{digit} 0 0\n", "malformed rational", line=4)


def test_ctx_directive_errors():
    base = "ksset 1\nname x\ndim 3\nvec a 1 0 0\nvec b 0 1 0\nvec c 0 0 1\n"
    rejects(base + "ctx a b\n", "context has 2 ids, expected 3", line=7)
    rejects(base + "ctx a a b\n", "context repeats a vector id", line=7)
    rejects(base + "ctx a b q\n", "undeclared vector id 'q'", line=7)
    err = rejects(base + "ctx a b c\nctx c b a\n", "duplicate context", line=8)
    assert "line 7" in err.message  # cites the earlier declaration


def test_m_override_errors():
    base = "ksset 1\nname x\ndim 3\nvec a 1 0 0\nvec b 0 1 0\nvec c 0 0 1\nctx a b c\n"
    rejects(base + "m-override -1\n", "m-override takes one non-negative integer", line=8)
    for digit in ("²", "³", "٣"):
        rejects(base + f"m-override {digit}\n", "m-override takes one non-negative integer", line=8)
    rejects(base + "m-override 5\nm-override 5\n", "duplicate m-override", line=9)
    ks = parses(base + "m-override 5\n")
    assert ks.m_override == 5


def test_unknown_directive():
    rejects("ksset 1\nname x\ndim 3\nvcx a b c\n", "unknown directive 'vcx'", line=4)


# --- serialization ------------------------------------------------------------


def test_serialize_round_trip_small():
    ks = parses(GOOD)
    assert parse_set(serialize_set(ks)) == ks


def test_serialize_formats_fractions_and_surds():
    text = (
        "ksset 1\nname s\ndim 3\nfield sqrt 5\n"
        "vec a 1/2 0 0\nvec b 0 0:-2/3 0\nvec c 0 0 1\nctx a b c\n"
    )
    ks = parses(text)
    out = serialize_set(ks)
    assert "field sqrt 5" in out
    assert "vec a 1/2 0 0" in out
    assert "vec b 0 0:-2/3 0" in out
    assert parse_set(out) == ks


def test_catalog_round_trip_identity(catalog_sets):
    for ks in catalog_sets:
        assert parse_set(serialize_set(ks)) == ks


def test_catalog_serialization_matches_source_tokens(catalog_sets):
    # identity up to whitespace and comments: same directive tokens in order
    for ks in catalog_sets:
        src = kb.catalog_text(ks.name)
        src_tokens = [
            line.split("#", 1)[0].split()
            for line in src.splitlines()
            if line.split("#", 1)[0].strip()
        ]
        ser_tokens = [line.split() for line in serialize_set(ks).splitlines()]
        assert src_tokens == ser_tokens


# --- catalog access ------------------------------------------------------------


def test_list_catalog():
    assert kb.list_catalog() == ("cabello18", "kernaghan-peres36", "kernaghan20")


def test_catalog_text_unknown_name():
    with pytest.raises(ValueError, match="unknown catalog set"):
        kb.catalog_text("nope")
    with pytest.raises(ValueError, match="unknown catalog set"):
        kb.catalog_text("../format")


def test_load_catalog_sets_are_annotated():
    for name in kb.list_catalog():
        text = kb.catalog_text(name)
        assert "#" in text  # provenance comments present
        ks = kb.load_catalog(name)
        assert ks.name == name
