"""The ``ksset 1`` text format: grammar, diagnostics, round-trips, catalog."""
import hashlib
import re
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ksbound as kb
from ksbound import ParseError, parse_document, serialize_set
from ksbound.format import _parse_rational
from ksbound.model import Context, ExactScalar, KsSet, RayVector, SetCheck

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
    return parse_document(text).ks_set


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
    assert parses(text.replace("\n", "\r")) == ks


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_only_lf_crlf_and_cr_end_a_line(sep):
    # str.splitlines also breaks here; a comment must run on to the line end
    rejects(f"ksset 1\n# note{sep}more\nname x\ndim 2\n", "dimension must be >= 3, got 2", line=4)
    rejects(f"ksset 1\r\n# note{sep}more\r\nname x\r\n", "missing dim directive", line=3)
    rejects("ksset 1\n", "missing name directive", line=1)


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
    a, _, c = ks.vectors
    assert a.components[1] == kb.ExactScalar(0, 1, 2)
    assert c.components[2] == kb.ExactScalar(Fraction(1, 2), 0, 2)


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
    rejects("ksset 1\nname x\nname y z\n", "name takes one identifier", line=3)  # shape first
    rejects("ksset 1\ndim 3\n", "missing name", line=2)


def test_dim_directive_errors():
    rejects("ksset 1\nname x\ndim\n", "dim takes one integer", line=3)
    rejects("ksset 1\nname x\ndim three\n", "dim takes one integer", line=3)
    rejects("ksset 1\nname x\ndim 2\n", "dimension must be >= 3, got 2", line=3)
    rejects("ksset 1\nname x\ndim 129\n", "dimension must be <= 128, got 129", line=3)
    for digit in ("²", "³", "٣"):  # superscripts, and a non-ASCII decimal
        rejects(f"ksset 1\nname x\ndim {digit}\n", "dim takes one integer", line=3)
    rejects("ksset 1\nname x\ndim 3\ndim 4\n", "duplicate dim", line=4)
    rejects("ksset 1\nname x\ndim 3\ndim x\n", "dim takes one integer", line=4)  # shape first
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
    rejects("ksset 1\nname x\ndim 3\nfield sqrt 2\nfield 3\n", "field directive must read", line=5)
    rejects(  # the duplicate check comes before the one for a preceding vec
        "ksset 1\nname x\ndim 3\nfield sqrt 2\nvec a 1 0 0\nfield sqrt 3\n",
        "duplicate field directive",
        line=6,
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
    rejects(base + "vec a 1:1 0 0\n", "surd part must be zero when the radicand is 1", line=4)
    rejects(base + "vec a 1.5:1 0 0\n", "malformed rational '1.5'", line=4)  # both parts parse first
    for digit in ("٣", "３", "²"):  # only ASCII digits are components
        rejects(base + f"vec a {digit} 0 0\n", "malformed rational", line=4)
        rejects(base + f"vec a 1/{digit} 0 0\n", "malformed rational", line=4)


@pytest.mark.parametrize("token, value", [
    ("+3/4", Fraction(3, 4)), ("007/2", Fraction(7, 2)), ("-0", Fraction(0)),
    ("-7/14", Fraction(-1, 2)),
])
def test_parse_rational_reads_a_signed_ratio(token, value):
    read = _parse_rational(token)
    assert read == value and type(read) is Fraction


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python's int() has no digit limit")
def test_parse_rational_refuses_a_zero_or_overlong_part():
    with pytest.raises(ValueError, match=r"^zero denominator in '3/0'$"):
        _parse_rational("3/0")
    digits = "3" * (sys.get_int_max_str_digits() + 1)
    limit = rf"^Exceeds the limit .* value has {len(digits)} digits"
    for token in (f"{digits}/7", f"-{digits}/7", f"7/{digits}", f"{digits}/0"):
        with pytest.raises(ValueError, match=limit):
            _parse_rational(token)


def test_repeated_tokens_parse_as_fresh_ones():
    # a bad token is reported where it first occurs, even when it recurs
    base = "ksset 1\nname x\ndim 3\nvec a 1 0 0\n"
    rejects(base + "vec b 0 1/0 1\nvec c 0 0 1\nvec d 1/0 1 1\n", "zero denominator", line=5)
    rejects(base + "vec b 0 1 1\nvec c 0 1 -1\nvec z 0 0 0\n", "zero vector", line=7)
    # vectors that share component tokens get the keys of fresh components
    rows = [("a", (1, 0, 0)), ("b", (0, 1, 1)), ("c", (0, 1, -1)), ("d", (Fraction(1, 2), -1, 1)),
            ("e", (0, Fraction(1, 2), 1))]
    text = "".join(f"vec {vid} " + " ".join(map(str, comps)) + "\n" for vid, comps in rows)
    ks = parses("ksset 1\nname x\ndim 3\n" + text)
    fresh = kb.make_set("x", 3, rows, [])
    assert [v.key for v in ks.vectors] == [v.key for v in fresh.vectors]
    assert ks.vectors == fresh.vectors


def test_ctx_directive_errors():
    base = "ksset 1\nname x\ndim 3\nvec a 1 0 0\nvec b 0 1 0\nvec c 0 0 1\n"
    rejects(base + "ctx a b\n", "context has 2 ids, expected 3", line=7)
    rejects(base + "ctx a a b\n", "context repeats vector id 'a'", line=7)
    rejects(base + "ctx a b q\n", "undeclared vector id 'q'", line=7)
    rejects(base + "ctx a a q\n", "undeclared vector id 'q'", line=7)  # before Context's repeat check
    err = rejects(base + "ctx a b c\nctx c b a\n", "duplicate context", line=8)
    assert "line 7" in err.message  # cites the earlier declaration


def test_m_override_errors():
    base = "ksset 1\nname x\ndim 3\nvec a 1 0 0\nvec b 0 1 0\nvec c 0 0 1\nctx a b c\n"
    rejects(base + "m-override -1\n", "m-override takes one non-negative integer", line=8)
    for digit in ("²", "³", "٣"):
        rejects(base + f"m-override {digit}\n", "m-override takes one non-negative integer", line=8)
    rejects(base + "m-override 5\nm-override 5\n", "duplicate m-override", line=9)
    rejects(base + "m-override 5\nm-override -5\n", "m-override takes one non-negative", line=9)
    ks = parses(base + "m-override 5\n")
    assert ks.m_override == 5


def test_unknown_directive():
    rejects("ksset 1\nname x\ndim 3\nvcx a b c\n", "unknown directive 'vcx'", line=4)


# --- checks the model also enforces -------------------------------------------

AXES = [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1))]
DECLARED = "ksset 1\nname x\ndim 3\nvec a 1 0 0\nvec b 0 1 0\nvec c 0 0 1\n"


@pytest.mark.parametrize("text, line, model_check", [
    pytest.param("ksset 1\nname x\ndim 2\n", 3,
                 lambda: kb.make_set("x", 2, [], []), id="dimension"),
    pytest.param("ksset 1\nname x\ndim 3\nfield sqrt 8\n", 4,
                 lambda: kb.make_set("x", 3, AXES, [], ring_radicand=8), id="radicand"),
    pytest.param("ksset 1\nname x\ndim 3\nvec a 1:1 0 0\n", 4,
                 lambda: kb.ExactScalar(1, 1, 1), id="surd-over-Q"),
    pytest.param("ksset 1\nname x\ndim 3\nvec z 0 0 0\n", 4,
                 lambda: kb.make_set("x", 3, [("z", (0, 0, 0))], []), id="zero-vector"),
    pytest.param(DECLARED + "ctx a b\n", 7,
                 lambda: kb.make_set("x", 3, AXES, [("a", "b")]), id="short-context"),
    pytest.param(DECLARED + "ctx a a b\n", 7,
                 lambda: kb.make_set("x", 3, AXES, [("a", "a", "b")]), id="repeated-id"),
    pytest.param(DECLARED + "ctx a b q\n", 7,
                 lambda: kb.make_set("x", 3, AXES, [("a", "b", "q")]), id="undeclared-id"),
    pytest.param(DECLARED + "vec d 2 0 0\n", 7,
                 lambda: kb.make_set("x", 3, [*AXES, ("d", (2, 0, 0))], []), id="duplicate-ray"),
    pytest.param(DECLARED + "vec d 1 1 0\nctx a d c\n", 8,
                 lambda: kb.make_set("x", 3, [*AXES, ("d", (1, 1, 0))], [("a", "d", "c")]),
                 id="not-orthogonal"),
])
def test_model_checks_report_the_models_message(text, line, model_check):
    # one implementation per invariant: the parser says what the model says,
    # at the directive's line
    with pytest.raises(ValueError) as model:
        model_check()
    err = rejects(text, str(model.value), line=line)
    assert err.message == str(model.value)


@pytest.mark.parametrize("vid, comps, message", [
    pytest.param("d", ("0", "1"), "vector 'd' has 2 components, expected 3", id="count"),
    pytest.param("a", ("0", "1", "1"), "duplicate vector id 'a'", id="repeated-id"),
    # both at once: the count comes first, in KsSet as in the parser
    pytest.param("a", ("0", "1"), "vector 'a' has 2 components, expected 3", id="both"),
])
def test_vector_checks_have_one_implementation(vid, comps, message):
    check = SetCheck(3, 1)
    for v in parses(DECLARED).vectors:
        check.vector(v)
    with pytest.raises(ValueError) as model:
        check.declare(vid, comps)
    assert str(model.value) == message
    err = rejects(DECLARED + f"vec {vid} {' '.join(comps)}\n", message, line=7)
    assert err.message == message
    with pytest.raises(type(model.value)) as built:
        kb.make_set("x", 3, [*AXES, (vid, tuple(map(int, comps)))], [])
    assert str(built.value) == message


SOUP_TOKENS = ["ksset", "name", "dim", "field", "sqrt", "vec", "ctx", "m-override",
               "a", "b", "c", "d", "0", "1", "-1", "2", "3", "8", "1/2", "0:1", "1:1",
               "1/0", "1.5", "\u00b2", "x!", "#"]
SOUP_LINES = st.one_of(
    st.sampled_from(["ksset 1", "name s", "dim 3", "dim 2", "field sqrt 2", "field sqrt 8",
                     "m-override 4", "", "# note"]),
    st.sampled_from(["vec z 0 0 0", "vec f 2 0 0", "vec a 0 1 0", "vec g 1:1 0 1",
                     "ctx a b q", "ctx a a b", "ctx a b", "ctx a b c d", "ctx b d e"]),
    st.builds("vec {} {} {} {}".format, st.sampled_from("abcde"),
              *[st.sampled_from(["0", "1", "-1", "1/2", "0:1", "1:1"])] * 3),
    st.lists(st.sampled_from("abcdeq"), max_size=4).map(lambda ids: " ".join(["ctx", *ids])),
    st.lists(st.sampled_from(SOUP_TOKENS), min_size=1, max_size=5).map(" ".join),
)
#: the body of a valid document, before the soup: distinct vectors, then contexts
SOUP_VECS = st.permutations(["vec a 1 0 0", "vec b 0 1 0", "vec c 0 0 1", "vec d 0 1 1",
                             "vec e 0 1 -1"])
SOUP_CTXS = st.lists(st.sampled_from(["ctx a b c", "ctx a d e", "ctx c b a"]), max_size=2)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([[], ["ksset 1", "name s"], ["ksset 1", "name s", "dim 3"],
                        ["ksset 1", "name s", "dim 3", "field sqrt 2"]]),
       SOUP_VECS, SOUP_CTXS, st.lists(SOUP_LINES, max_size=4))
def test_directive_soup_parses_or_names_a_line(head, vecs, ctxs, soup):
    # whatever the lines, the parser accepts a valid set or raises a
    # ParseError at one of the document's lines, never anything else
    lines = head + vecs + ctxs + soup
    text = "".join(line + "\n" for line in lines)
    try:
        doc = parse_document(text)
    except ParseError as exc:
        assert 1 <= exc.line <= max(1, len(lines))
        return
    ks = doc.ks_set
    assert KsSet(*ks) == ks
    assert parse_document(serialize_set(ks)).ks_set == ks


# --- serialization ------------------------------------------------------------


def test_serialize_round_trip_small():
    ks = parses(GOOD)
    assert parse_document(serialize_set(ks)).ks_set == ks


@pytest.mark.parametrize("name, ids, bad", [
    ("my set", ("a", "b", "c"), "my set"),
    ("demo\n", ("a", "b", "c"), "demo\n"),
    ("demo", ("a", "c#", "d#"), "c#"),
    ("demo", ("a", "b", ""), ""),
])
def test_ks_set_refuses_what_the_format_cannot_hold(name, ids, bad):
    # "name my set" and "vec c# ..." would not parse back to the same set
    vecs = zip(ids, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    what = "set name" if bad == name else "vector id"
    with pytest.raises(ValueError, match=f"^{re.escape(f'malformed {what} {bad!r}')}$"):
        kb.make_set(name, 3, vecs, [ids])


def unchecked_document(ks):
    """The document ``serialize_set`` would write for the fields of ``ks``
    made unchecked: every field as Python formats it."""
    def word(c):
        return str(c.rational) if c.surd == 0 else f"{c.rational}:{c.surd}"

    lines = ["ksset 1", f"name {ks.name}", f"dim {ks.dimension}", f"field sqrt {ks.ring_radicand}"]
    lines += [f"vec {v.id} " + " ".join(map(word, v.components)) for v in ks.vectors]
    lines += ["ctx " + " ".join(map(str, ctx.vector_ids)) for ctx in ks.contexts]
    if ks.m_override is not None:
        lines.append(f"m-override {ks.m_override}")
    return "\n".join(lines) + "\n"


IDENTS = st.from_regex(r"[A-Za-z0-9_.-]{1,4}", fullmatch=True)
SCALES = st.tuples(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]),
                   st.sampled_from([0, 1, -1, Fraction(2, 3)]))
#: values a field may be given by mistake: equal to an integer without being
#: one, a word with a newline, a comment mark or a space, and integers that
#: print as identifiers
NEAR_VALID = [3.0, True, 2, "a\n", "c#", "my set", "", "\u00e9", 123, 5]
FLAWS = st.dictionaries(st.sampled_from(["name", "dimension", "radicand", "id", "m_override"]),
                        st.sampled_from(NEAR_VALID), max_size=2)


@settings(max_examples=300, deadline=None)
@given(name=IDENTS, dimension=st.sampled_from([3, 4]), radicand=st.sampled_from([1, 2, 5]),
       ids=st.lists(IDENTS, min_size=4, max_size=4, unique=True),
       scales=st.lists(SCALES, min_size=4, max_size=4), mixed=st.booleans(),
       with_context=st.booleans(), m_override=st.sampled_from([None, 0, 7]), flaws=FLAWS)
@example(name="s", dimension=3, radicand=1, ids=["a", "b", "c", "d"], scales=[(1, 0)] * 4,
         mixed=False, with_context=True, m_override=None, flaws={"name": 123})
@example(name="s", dimension=3, radicand=2, ids=["a", "b", "c", "d"], scales=[(1, 1)] * 4,
         mixed=True, with_context=True, m_override=0, flaws={"id": 5})
def test_every_valid_set_round_trips_or_is_refused(
    name, dimension, radicand, ids, scales, mixed, with_context, m_override, flaws
):
    # a valid set with up to two fields replaced by near-valid values: the
    # rows of a basis, the first two mixed into (1, 1, 0, ...) and
    # (1, -1, 0, ...) when ``mixed``, each scaled by a + b*sqrt(k).  What
    # KsSet builds writes out and reads back; what it refuses, written
    # unchecked, does not read back as the same fields
    rows = [[int(i == j) for j in range(dimension)] for i in range(dimension)]
    if mixed:
        rows[0][1], rows[1][0], rows[1][1] = 1, 1, -1
    radicand = flaws.get("radicand", radicand)
    ids = [ids[0], flaws.get("id", ids[1]), *ids[2:]]
    try:
        vectors = tuple(
            RayVector(vid, tuple(ExactScalar(x * a, x * b if radicand != 1 else 0, radicand) for x in row))
            for vid, row, (a, b) in zip(ids, rows, scales)
        )
        contexts = (Context(tuple(ids[:dimension])),) if with_context else ()
    except ValueError:
        return  # a vector or context refuses these fields: there is no set to write
    fields = (flaws.get("name", name), flaws.get("dimension", dimension), radicand,
              vectors, contexts, flaws.get("m_override", m_override))
    try:
        ks = KsSet(*fields)
    except ValueError:
        try:
            back = parse_document(unchecked_document(KsSet._make(fields))).ks_set
        except ParseError:
            return
        assert back != fields
        return
    text = serialize_set(ks)
    back = parse_document(text).ks_set
    assert back == ks
    assert serialize_set(back) == text


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
    assert parse_document(out).ks_set == ks


def test_catalog_round_trip_identity(catalog_sets):
    for ks in catalog_sets:
        assert parse_document(serialize_set(ks)).ks_set == ks


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


# --- pinned outcomes -----------------------------------------------------------

#: SHA-256 of the output of ``tools/parse_outcomes.py``, one JSON line per outcome.
PINNED_OUTCOMES = "fe015faaf390043147df24fa73d654d22565ed6ac5d6e1ddc24c09b4db78978f"


def test_parse_outcomes_are_pinned():
    # every message, line, key and canonical document over the catalog, a
    # small Q(sqrt 2) set and all their single-token and line mutants must
    # match across commits; `diff` two checkouts' tool output to see which moved
    tool = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "parse_outcomes.py"))
    digest = hashlib.sha256("".join(tool["outcome_lines"]()).encode()).hexdigest()
    assert digest == PINNED_OUTCOMES


# --- catalog access ------------------------------------------------------------


def test_list_catalog():
    assert kb.list_catalog() == ("cabello18", "kernaghan-peres36", "kernaghan20")


def test_catalog_text_unknown_name():
    with pytest.raises(ValueError, match="unknown catalog set"):
        kb.catalog_text("nope")
    with pytest.raises(ValueError, match="unknown catalog set"):
        kb.catalog_text("../format")


def test_load_catalog_raises_parse_error_on_a_broken_bundled_file(monkeypatch):
    # a broken bundled file raises at its line, as any document does
    bad = GOOD.replace("vec b 0 1 0", "vec b 1 1 0")
    monkeypatch.setattr("ksbound.format.catalog_text", lambda name: bad)
    with pytest.raises(ParseError) as ei:
        kb.load_catalog("cabello18")
    assert ei.value.line == 7 and "context not orthogonal" in ei.value.message


def test_load_catalog_sets_are_annotated():
    for name in kb.list_catalog():
        text = kb.catalog_text(name)
        assert "#" in text  # provenance comments present
        ks = kb.load_catalog(name)
        assert ks.name == name
