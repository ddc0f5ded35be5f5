"""CLI behavior: commands, exit codes, diagnostics, JSON determinism."""
import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ksbound
from conftest import R_STAR, SURD_SET, connection_slots, fan_document
from ksbound import (
    Context,
    assignment_defect,
    find_coloring,
    parse_document,
    serialize_set,
)
from ksbound.bounds import check_rate
from ksbound.cli import _flag, build_parser, main, run
from ksbound.model import check_integer

GOOD = """\
ksset 1
name demo
dim 3
vec a 1 0 0
vec b 0 1 0
vec c 0 0 1
ctx a b c
"""

BAD_LINE7 = """\
ksset 1
name demo
dim 3
vec a 1 0 0
vec b 1 1 0
vec c 0 0 1
ctx a b c
"""


@pytest.fixture
def good_file(tmp_path):
    p = tmp_path / "good.ksset"
    p.write_text(GOOD)
    return str(p)


@pytest.fixture
def bad_file(tmp_path):
    p = tmp_path / "bad.ksset"
    p.write_text(BAD_LINE7)
    return str(p)


def test_validate_catalog_ok(capsys):
    assert main(["validate", "catalog:cabello18"]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "18 vectors" in out


def test_validate_reports_line_number(bad_file, capsys):
    assert main(["validate", bad_file]) == 1
    err = capsys.readouterr().err
    assert f"{bad_file}:7:" in err
    assert "context not orthogonal" in err


def test_validate_json(good_file, capsys):
    assert main(["validate", good_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True and doc["violations"] == []
    assert doc["set"] == "demo"


def test_missing_file(capsys):
    assert main(["validate", "/no/such/file.ksset"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_non_decimal_digit_in_directive(tmp_path, capsys):
    p = tmp_path / "sup.ksset"
    p.write_text("ksset 1\nname demo\ndim \u00b2\n", encoding="utf-8")
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err == f"error: {p}:3: dim takes one integer\n"


def test_form_feed_in_comment_keeps_line_numbers(tmp_path, capsys):
    p = tmp_path / "ff.ksset"
    p.write_bytes(b"ksset 1\n# note\x0cmore\nname x\ndim 2\n")
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err == f"error: {p}:4: dimension must be >= 3, got 2\n"


def test_huge_radicand_exits_at_once(tmp_path):
    # trial division up to sqrt(k) would not end; the radicand limit refuses it
    p = tmp_path / "huge.ksset"
    p.write_text(GOOD.replace("dim 3\n", "dim 3\nfield sqrt 1000000000000000003\n"))
    assert len(p.read_text().splitlines()) == 8
    argv = [sys.executable, "-m", "ksbound", "validate", str(p)]
    env = {**os.environ, "PYTHONPATH": str(Path(ksbound.__file__).resolve().parents[1])}
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 1
    assert done.stderr == (
        f"error: {p}:4: radicand 1000000000000000003 exceeds the limit 1000000000\n"
    )


def test_non_utf8_file(tmp_path, capsys):
    p = tmp_path / "bytes.ksset"
    p.write_bytes(b"\xff\xfe")
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err == f"error: cannot read {p}: not valid UTF-8\n"


def test_unknown_catalog_name(capsys):
    assert main(["stats", "catalog:nope"]) == 1
    assert "unknown catalog set" in capsys.readouterr().err


def test_stats_text_shows_override(capsys):
    assert main(["stats", "catalog:kernaghan-peres36"]) == 0
    out = capsys.readouterr().out
    assert "M          72 (declared override; all-pairs count 76)" in out
    assert "in 4 contexts: 8 vectors" in out


def test_stats_json(capsys):
    assert main(["stats", "catalog:cabello18", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "set": "cabello18",
        "dimension": 4,
        "n": 18,
        "N": 9,
        "M": 18,
        "m_all_pairs": 18,
        "m_override": None,
        "multiplicity_histogram": {"2": 18},
    }


def test_color_ks_set_exits_two(capsys):
    assert main(["color", "catalog:cabello18"]) == 2
    out = capsys.readouterr().out
    assert "no non-contextual assignment exists" in out


def test_color_colorable_exits_zero(good_file, capsys):
    assert main(["color", good_file]) == 0
    out = capsys.readouterr().out
    assert "colorable" in out


def test_color_json_exit_codes(good_file, tmp_path, capsys):
    assert main(["color", good_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["colorable"] is True
    values = set(doc["assignment"].values())
    assert values <= {0, 1}
    assert main(["color", "catalog:kernaghan20", "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["colorable"] is False and doc["assignment"] is None
    # a colorable set without vectors has an empty assignment, not none
    empty = tmp_path / "empty.ksset"
    empty.write_text("ksset 1\nname empty\ndim 3\n")
    assert main(["color", str(empty), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["colorable"] is True and doc["assignment"] == {}


def test_defect_text(capsys):
    assert main(["defect", "catalog:cabello18"]) == 0
    out = capsys.readouterr().out
    assert "d_min 1" in out


def test_defect_json(capsys):
    assert main(["defect", "catalog:cabello18", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d_min"] == 1
    assert doc["sum_defects"] + doc["connection_defects"] == 1
    assert len(doc["witness"]) == 9 * 4


def test_defect_json_beyond_drop_one(tmp_path, capsys, cabello18x2):
    # no drop-one witness exists, so the search drops pairs of contexts
    path = tmp_path / "cabello18x2.ksset"
    path.write_text(serialize_set(cabello18x2))
    assert main(["defect", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["d_min"], doc["nodes"]) == (2, 35222)
    assert [entry[:2] for entry in doc["witness"]] == [[s // 4, s % 4] for s in range(18 * 4)]
    witness = tuple(value for _, _, value in doc["witness"])
    breakdown = (doc["sum_defects"], doc["connection_defects"])
    assert breakdown == assignment_defect(cabello18x2, witness) == (2, 0)


def test_bounds_text(capsys):
    assert main(["bounds", "catalog:cabello18", "--delta", "0.005", "--epsilon", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "verdict: contradiction" in out
    assert "delta floor" in out


def test_bounds_json_vacuous(capsys):
    code = main(["bounds", "catalog:cabello18", "--delta", "0", "--epsilon", "0.2", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta_min_vacuous"] is True
    assert doc["contradiction"] is False
    assert main(["bounds", "catalog:cabello18", "--delta", "0", "--epsilon", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "delta floor: vacuous (epsilon >= 1/N)" in out
    assert "verdict: no contradiction" in out


def test_bounds_rejects_bad_rates(capsys):
    for flag, other in (("--delta", "--epsilon"), ("--epsilon", "--delta")):
        for value in ("nan", "inf", "-inf", "-5", "7", "1.0001", "-0.0001"):
            argv = ["bounds", "catalog:cabello18", f"{flag}={value}", other, "0.001"]
            assert main(argv) == 1, (flag, value)
            assert f"{flag} must lie in [0, 1]" in capsys.readouterr().err
    assert main(["bounds", "catalog:cabello18", "--delta", "1", "--epsilon", "0"]) == 0


@pytest.mark.parametrize("source, delta, epsilon", [
    ("catalog:kernaghan20", "0.026", "0.02"),
    ("catalog:kernaghan20", "0.0073", "0.0710"),
    ("catalog:kernaghan20", "0.0326", "0.002"),
    ("catalog:kernaghan-peres36", "0.009", "0.032"),
])
def test_bounds_decides_the_boundary_exactly(source, delta, epsilon, capsys):
    # M*delta + N*epsilon is exactly 1 here, so the margin is 0 and no
    # contradiction follows, though a float sum of the same decimals is not 1
    argv = ["bounds", source, "--delta", delta, "--epsilon", epsilon]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2:] == [
        "margin 1 - M*delta - N*epsilon = 0.0",
        "verdict: no contradiction at these rates",
        f"delta floor: any non-contextual model needs delta >= {float(delta)}",
    ]
    assert main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["margin"], doc["contradiction"], doc["delta_min"]) == (0.0, False, float(delta))


#: (N, M) of each catalog set, as ``stats`` reports them.
CATALOG_N_M = {"cabello18": (9, 18), "kernaghan20": (11, 30), "kernaghan-peres36": (11, 72)}

rate_strings = st.one_of(
    st.integers(0, 1000).map(lambda k: str(Decimal(k).scaleb(-4))),  # 0.0073, 0E-4
    st.decimals(0, 1, places=8).map(str),
)


@given(st.sampled_from(sorted(CATALOG_N_M)), rate_strings, rate_strings)
@example("kernaghan20", "0.026", "0.02")
@example("kernaghan-peres36", "0.009", "0.032")
@example("cabello18", "0.0", "0.1111")
@settings(max_examples=150, deadline=None)
def test_bounds_verdict_is_the_sign_of_the_exact_margin(name, delta, epsilon):
    N, M = CATALOG_N_M[name]
    margin = 1 - M * Fraction(Decimal(delta)) - N * Fraction(Decimal(epsilon))
    floor = max(0, 1 - N * Fraction(Decimal(epsilon))) / Fraction(M)
    argv = ["bounds", f"catalog:{name}", "--delta", delta, "--epsilon", epsilon, "--json"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    doc = json.loads(out.getvalue())
    assert doc["contradiction"] == (margin > 0)
    assert (doc["margin"], doc["delta_min"]) == (float(margin), float(floor))
    assert doc["delta_min_vacuous"] == (floor == 0)


def test_bounds_reads_ratios_and_refuses_non_numbers(capsys):
    assert main(["bounds", "catalog:cabello18", "--delta", "1/72", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["delta"], doc["margin"]) == (1 / 72, 0.75)
    for value in ("1/0", "abc", "1/-2", ""):
        assert main(["bounds", "catalog:cabello18", "--delta", value]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: --delta must lie in [0, 1], got {value}\n")
    # the exponent is capped before the exact value is built, and a rate below
    # float range is refused by the report
    for value, message in (
        ("1e-10000", "--epsilon takes an exponent of at most 4 digits, got 1e-10000"),
        ("1e-400", "epsilon is too small for a float"),
    ):
        assert main(["bounds", "catalog:cabello18", "--epsilon", value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["bounds", "catalog:cabello18", "--epsilon", "0e-9999"]) == 0
    assert "verdict: contradiction" in capsys.readouterr().out


#: The last two lines of a ``bounds`` report on a colorable set.
COLORABLE_VERDICT = [
    "verdict: no contradiction (the set is colorable)",
    "delta floor: vacuous (the set is colorable)",
]


def test_bounds_on_a_set_without_connections_is_colorable(good_file, capsys):
    # with no ray shared, every context takes its own zero: a coloring, so
    # no rate rules out a non-contextual model
    assert main(["bounds", good_file, "--delta", "0.01"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[2:] == ["margin 1 - M*delta - N*epsilon = 1.0",
                                                  *COLORABLE_VERDICT]


def test_a_colorable_set_gets_no_contradiction(two_triads, tmp_path, capsys):
    # two triads sharing one ray: the coloring is a non-contextual model with
    # no errors at all, so bounds finds no contradiction and critical-r no rate
    path = tmp_path / "two-triads.ksset"
    path.write_text(serialize_set(two_triads))
    assert main(["color", str(path)]) == 0
    assert capsys.readouterr().out.startswith("two-triads: colorable (2 search nodes)\n")
    assert main(["bounds", str(path), "--delta", "0", "--epsilon", "0"]) == 0
    assert capsys.readouterr() == ("\n".join([
        "set two-triads: d=3 N=2 M=1",
        "delta=0.0 epsilon=0.0",
        "margin 1 - M*delta - N*epsilon = 1.0",
        *COLORABLE_VERDICT,
    ]) + "\n", "")
    assert main(["bounds", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["margin"], doc["contradiction"]) == (1.0, False)
    assert (doc["delta_min"], doc["delta_min_vacuous"]) == (0.0, True)
    message = "error: set two-triads is colorable, so no flip rate gives a contradiction\n"
    for extra in ([], ["--json"]):
        assert main(["critical-r", str(path), *extra]) == 1
        assert capsys.readouterr() == ("", message)
    # given the counts alone, critical-r is a calculator and checks no set
    assert main(["critical-r", "--N", "2", "--M", "1", "--d", "3"]) == 0
    assert "critical rate r* = 0.160568504687\n" in capsys.readouterr().out


def test_a_mixture_of_colorings_meets_the_bound_on_cabello18(cabello18, capsys):
    # a non-contextual model: cabello18's 9 drop-one colorings, each breaking
    # its one context, and 18 detached-slot colorings, each cutting its one
    # ray's connection, with weight 1/27 each.  Every epsilon_C and delta_c is
    # 1/27, so M*delta + N*epsilon = 1 at M = 18 = M_cut: bounds must find no
    # contradiction there, and a lower M would claim one this model refutes
    ks, d = cabello18, cabello18.dimension
    rows = [ctx.vector_ids for ctx in ks.contexts]
    strategies = []
    for c in range(len(rows)):
        found = find_coloring(ks._replace(contexts=ks.contexts[:c] + ks.contexts[c + 1:]))
        strategies.append(tuple(found.assignment[vid] for row in rows for vid in row))
    # every ray is in two contexts: detach its first slot onto a fresh ray,
    # a copy of it that _replace lets in, since the search reads only the ids
    for v in ks.vectors:
        c = next(c for c, row in enumerate(rows) if v.id in row)
        detached = [*rows[:c], tuple("fresh" if vid == v.id else vid for vid in rows[c]), *rows[c + 1:]]
        found = find_coloring(ks._replace(vectors=(*ks.vectors, v._replace(id="fresh")),
                                          contexts=tuple(map(Context, detached))))
        strategies.append(tuple(found.assignment[vid] for row in detached for vid in row))
    assert [assignment_defect(ks, s) for s in strategies] == [(1, 0)] * 9 + [(0, 1)] * 18
    weight = Fraction(1, len(strategies))
    epsilon = [sum(weight for s in strategies if sum(s[c * d:c * d + d]) != d - 1)
               for c in range(len(rows))]
    delta = [sum(weight for s in strategies if s[a] != s[b]) for a, b in connection_slots(ks)]
    assert (len(epsilon), len(delta)) == (9, 18)
    assert set(epsilon) == set(delta) == {Fraction(1, 27)}
    assert main(["bounds", "catalog:cabello18", "--delta", "1/27", "--epsilon", "1/27", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["M"], doc["margin"], doc["contradiction"]) == (18, 0.0, False)


@pytest.mark.parametrize("m", [0, 1, 17, 18])
def test_an_override_below_m_cut_is_refused_at_its_line(m, tmp_path, capsys):
    # cabello18's M_cut is (9*4 - 0)/2 = 18; the m-override line precedes the
    # contexts that fix M_cut, and the refusal names it
    lines = ksbound.catalog_text("cabello18").splitlines()
    at = lines.index("dim 4") + 1
    path = tmp_path / "low-m.ksset"
    path.write_text("\n".join([*lines[:at], f"m-override {m}", *lines[at:]]) + "\n")
    argv = ["bounds", str(path), "--delta", "0.05", "--epsilon", "0.05"]
    if m < 18:
        for command in (argv, ["critical-r", str(path)]):
            assert main(command) == 1
            message = f"m-override must be >= M_cut = (N*d - n1)/2 = 18, got {m}"
            assert capsys.readouterr() == ("", f"error: {path}:{at + 1}: {message}\n")
    else:
        assert main(argv) == 0
        assert "verdict: no contradiction at these rates" in capsys.readouterr().out


def test_critical_r_from_parameters(capsys):
    assert main(["critical-r", "--N", "9", "--M", "18", "--d", "4"]) == 0
    out = capsys.readouterr().out
    assert "0.0142" in out


def test_critical_r_from_catalog(capsys):
    assert main(["critical-r", "catalog:kernaghan-peres36", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["M"] == 72 and doc["d"] == 8
    assert doc["r_floor4"] == 0.0043


HUGE = "1" + "0" * 400  # past float range


@pytest.mark.parametrize("flag, message", [
    # a count this large puts the root below the least positive float
    ("--N", "critical rate is too small for a float"),
    ("--M", "critical rate is too small for a float"),
    # the exact search's cost grows with d, which check_dimension caps
    ("--d", f"--d must be <= 128, got {HUGE}"),
], ids=["--N", "--M", "--d"])
def test_critical_r_huge_parameter_exits_1(flag, message, capsys):
    argv = ["critical-r", "--N", "1", "--M", "1", "--d", "3"]
    argv[argv.index(flag) + 1] = HUGE
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


#: Each case's message.  critical-r and bounds both decide exactly and refuse
#: a value their report cannot carry as a float.
HUGE_M_ERRORS = {
    "critical-r": "critical rate is too small for a float",  # about 1/(2M)
    "bounds": "delta_min is too small for a float",  # 1/M rounds to 0
    # the margin 1 - M/100 is past float range
    "bounds --delta 0.01 --json": "integer division result too large for a float",
}


@pytest.mark.parametrize(
    "argv", [["critical-r"], ["bounds"], ["bounds", "--delta", "0.01", "--json"]]
)
def test_huge_m_override_exits_1(argv, tmp_path, capsys):
    # on a KS set: a colorable one gets no contradiction whatever its M
    p = tmp_path / "huge-m.ksset"
    p.write_text(ksbound.catalog_text("cabello18") + f"m-override {HUGE}\n")
    assert main([argv[0], str(p), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {HUGE_M_ERRORS[' '.join(argv)]}\n"


@pytest.mark.parametrize("flags, message", [
    (["--N", "0", "--M", "1", "--d", "3"], "--N must be >= 1, got 0"),
    (["--N", "1", "--M", "0", "--d", "3"], "--M must be >= 1, got 0"),
    (["--N", "1", "--M", "1", "--d", "2"], "--d must be >= 3, got 2"),
    (["--N", "1", "--M", "1", "--d", "129"], "--d must be <= 128, got 129"),
])
def test_critical_r_names_the_bad_flag(flags, message, capsys):
    assert main(["critical-r", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_critical_r_requires_parameters_or_set(capsys):
    assert main(["critical-r"]) == 1
    assert "needs a set or all of" in capsys.readouterr().err
    assert main(["critical-r", "catalog:cabello18", "--N", "9"]) == 1
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bounds", "catalog:cabello18", "--delta", "2"],
    ["bounds", "catalog:cabello18", "--epsilon", "nan"],
    ["simulate", "catalog:cabello18", "--r", "1.5"],
    ["simulate", "catalog:cabello18", "--r", "0.1", "--trials", "0"],
    ["simulate", "catalog:cabello18", "--r", "0.1", "--seed=-1"],
    ["validate", "missing.ksset"],
    ["stats", "."],
    ["color", "bytes.ksset"],
    ["color", "catalog:nope"],
    ["defect", "bad.ksset"],
    ["critical-r", "catalog:cabello18", "--N", "9"],
    ["critical-r"],
    ["critical-r", "--N", HUGE, "--M", "1", "--d", "3"],
], ids=["delta", "epsilon", "r", "trials", "seed", "missing", "directory", "not-utf8",
        "unknown-catalog", "parse-error", "set-and-N", "no-set-no-N", "past-float-range"])
def test_failing_command_prints_nothing_on_stdout(argv, tmp_path, monkeypatch, capsys):
    # one report on stdout or none: every exit-1 path leaves stdout empty, in
    # text and in --json, and says why on stderr
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bytes.ksset").write_bytes(b"\xff\xfe")
    (tmp_path / "bad.ksset").write_text(BAD_LINE7)
    for args in (argv, argv + ["--json"]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), args


@pytest.mark.parametrize("argv, target", [
    (["color", "catalog:cabello18"], "find_coloring"),
    (["stats", "catalog:cabello18"], "build_stats"),
    (["table"], "table_report"),
], ids=["color", "stats", "table"])
def test_main_reports_every_rejected_input_once(argv, target, monkeypatch, capsys):
    # a rejected input is a ValueError or an OverflowError from wherever the
    # handler meets it, and main alone reports it; an internal fault is an
    # AssertionError and keeps its traceback
    for error in (ValueError, OverflowError, AssertionError):
        def fail(*args, **kwargs):
            raise error("probe")

        monkeypatch.setattr(f"ksbound.cli.{target}", fail)
        for args in (argv, argv + ["--json"]):
            if error is AssertionError:
                with pytest.raises(AssertionError, match="probe"):
                    main(args)
                continue
            assert main(args) == 1, (error, args)
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: probe\n"), (error, args)


#: A fresh ksbound with block-buffered stdout, as from a shell.
BUFFERED_ENV = {
    **os.environ,
    "PYTHONPATH": str(Path(ksbound.__file__).resolve().parents[1]),
    "PYTHONUNBUFFERED": "",
}


def test_closed_stdout_exits_one_quietly(tmp_path):
    # the report, about 124 KB, overfills the pipe buffer, so the write blocks
    # until the reader closes its end, whatever the timing
    path = tmp_path / "fan.ksset"
    path.write_text(fan_document(1000))
    argv = [sys.executable, "-m", "ksbound", "defect", str(path), "--json"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=BUFFERED_ENV
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1]
    assert proc.returncode == 1
    assert err == b""


def test_stdout_closed_before_a_short_report_exits_one_quietly():
    # the read end is closed before the command starts, so the write fails
    # for certain; a report this short stays in stdout's buffer, and the
    # flush at exit must not fail again
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        argv = [sys.executable, "-m", "ksbound", "table"]
        done = subprocess.run(
            argv, stdout=write_end, stderr=subprocess.PIPE, env=BUFFERED_ENV, timeout=60
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_simulate_text(capsys):
    assert main(["simulate", "catalog:cabello18", "--r", "0.0142",
                 "--trials", "2000", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "empirical inequality: holds" in out
    assert "min per-trial defect 1" in out


def test_simulate_colorable_set(good_file, capsys):
    assert main(["simulate", good_file, "--r", "0.1", "--trials", "500", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "not applicable" in out


@pytest.mark.parametrize("doc", [
    "ksset 1\nname lonely\ndim 3\nvec a 1 0 0\n",
    "ksset 1\nname empty\ndim 3\n",
], ids=["one-vec", "no-vec"])
def test_simulate_set_without_contexts(doc, tmp_path, capsys):
    # no slots: nothing to draw, every counter 0, and the set is colorable
    path = tmp_path / "bare.ksset"
    path.write_text(doc)
    argv = ["simulate", str(path), "--r", "0.1", "--trials", "100", "--seed", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "min per-trial defect 0" in out and "not applicable" in out
    assert main(argv + ["--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["delta_hat"] == result["epsilon_hat"] == []
    assert result["mean_defect"] == 0 and result["inequality"] is None


def test_large_fan_runs_within_the_default_recursion_limit(tmp_path, capsys):
    # 1000 contexts, one per search step: deeper than Python's default
    # recursion limit, so a search that recursed per context fails here.
    assert sys.getrecursionlimit() <= 1000
    path = tmp_path / "fan.ksset"
    path.write_text(fan_document(1000))
    assert main(["color", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("fan: colorable (1000 search nodes)") and captured.err == ""
    assert main(["defect", str(path)]) == 0
    captured = capsys.readouterr()
    assert "\nd_min 0\n" in captured.out and captured.err == ""
    assert main(["simulate", str(path), "--r", "0.01", "--trials", "100"]) == 0
    captured = capsys.readouterr()
    assert "not applicable (set is colorable)" in captured.out and captured.err == ""
    assert main(["stats", str(path), "--json"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["M"] == doc["m_all_pairs"] == 1000 * 999 // 2 and captured.err == ""


def test_simulate_json_byte_deterministic(capsys):
    argv = ["simulate", "catalog:kernaghan20", "--r", "0.1",
            "--trials", "30000", "--seed", "11", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["inequality"]["holds"] is True
    assert len(doc["delta_hat"]) == 30


def test_simulate_rejects_bad_rate(capsys):
    assert main(["simulate", "catalog:cabello18", "--r", "1.5"]) == 1
    assert "--r must lie in [0, 1]" in capsys.readouterr().err
    assert main(["simulate", "catalog:cabello18", "--r", "0.1", "--trials", "0"]) == 1
    assert "--trials must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ("1e-400", "--r is too small for a float"),
    ("2e-324", "--r is too small for a float"),  # under half the least subnormal
    ("1e-99999", "--r takes an exponent of at most 4 digits, got 1e-99999"),
    ("abc", "--r must lie in [0, 1], got abc"),
    ("1/0", "--r must lie in [0, 1], got 1/0"),
], ids=["below-float-range", "rounds-to-0", "long-exponent", "not-a-number", "ratio-over-0"])
def test_simulate_refuses_a_rate_as_bounds_does(value, message, capsys):
    # --r is read exactly, as bounds reads --delta, and refused through main's
    # one error path: no usage line, nothing on stdout, and never a run at r = 0
    for extra in ([], ["--json"]):
        assert main(["simulate", "catalog:cabello18", f"--r={value}", *extra]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_simulate_reads_a_rate_once_to_the_nearest_float(capsys):
    # a ratio gives the bytes of its float's decimal, and -0 reads as 0
    argv = ["simulate", "catalog:cabello18", "--trials", "2000", "--seed", "7"]
    for extra in ([], ["--json"]):
        outs = []
        for value in ("1/72", "0.013888888888888888"):
            assert main([*argv, "--r", value, *extra]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
    assert outs[0].count('\n  "r": 0.013888888888888888,\n') == 1
    assert main([*argv, "--r=-0"]) == 0
    assert capsys.readouterr().out.startswith("set cabello18: 2000 trials, r=0.0, seed=7\n")
    assert main([*argv, "--r=-0", "--json"]) == 0
    assert capsys.readouterr().out.count('\n  "r": 0.0,\n') == 1


def test_no_flag_is_read_as_a_float():
    # every numeric flag is read exactly by cli._flag and checked by the
    # library; argparse's float would round a rate first, and its float or
    # int would refuse a value with its own usage error, so no action sets a type
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    typed = [
        (name, action.dest, action.type)
        for name, sub in [("ksbound", parser), *commands.choices.items()]
        for action in sub._actions
        if action.type is not None
    ]
    assert typed == []


def test_flag_reads_the_named_number():
    # an integer reads as an int, any other number as its exact Fraction
    for text, value in (("0.026", Fraction(13, 500)), ("1/72", Fraction(1, 72)),
                        (" 1e-3 ", Fraction(1, 1000)), ("1e-00005", Fraction(1, 10**5)),
                        ("1", 1), ("0E-4", 0), ("1.0", 1), ("2/2", 1), ("-0", 0)):
        rate = _flag(text, "--delta", check_rate)
        assert rate == value and type(rate) is type(value), text
    for text in ("1e3", "1000.0", "2000/2", "1E+03", "+1000", "01000", "1_000", " 1000 ", "١٠٠٠"):
        count = _flag(text, "--trials", check_integer, 1)
        assert count == 1000 and type(count) is int, text
    for text in ("nan", "inf", "abc", "1/0", "-0.001", "1.0001", "3/2"):
        message = f"--delta must lie in [0, 1], got {text}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _flag(text, "--delta", check_rate)


#: The other arguments of a run that each numeric flag is tried in.
FLAG_RUNS = {
    "--delta": ["bounds", "catalog:cabello18"],
    "--epsilon": ["bounds", "catalog:cabello18"],
    "--N": ["critical-r", "--M", "18", "--d", "4"],
    "--M": ["critical-r", "--N", "9", "--d", "4"],
    "--d": ["critical-r", "--N", "9", "--M", "18"],
    "--r": ["simulate", "catalog:cabello18", "--trials", "10"],
    "--trials": ["simulate", "catalog:cabello18", "--r", "0.1"],
    "--seed": ["simulate", "catalog:cabello18", "--r", "0.1", "--trials", "10"],
}
RATE_FLAGS = ("--delta", "--epsilon", "--r")
#: Each flag's refused values, with the message main prints for each.
FLAG_ERRORS = {
    flag: [(value, f"{flag} must lie in [0, 1], got {value}") for value in ("abc", "1/0", "nan")]
    for flag in RATE_FLAGS
} | {
    flag: [(value, f"{flag} must be an integer, got {value}")
           for value in ("abc", "1/0", "nan", "1.5", "2/3", "1e-1")]
    for flag in FLAG_RUNS if flag not in RATE_FLAGS
}
for flag, value, rule in [
    ("--r", "1.5", "must lie in [0, 1]"),
    ("--r", "3/2", "must lie in [0, 1]"),
    ("--delta", "1.0001", "must lie in [0, 1]"),
    ("--epsilon", "-1e-4", "must lie in [0, 1]"),
    ("--seed", "-1", "must lie in [0, 2^64)"),
    ("--seed", "18446744073709551616", "must lie in [0, 2^64)"),
    ("--seed", "-1e0", "must lie in [0, 2^64)"),
    ("--trials", "0", "must be >= 1"),
    ("--trials", "0.0", "must be >= 1"),
    ("--N", "0", "must be >= 1"),
    ("--M", "0/7", "must be >= 1"),
    ("--d", "2", "must be >= 3"),
    ("--d", "2e0", "must be >= 3"),
    ("--seed", "1e99999", "takes an exponent of at most 4 digits"),
    ("--N", "2e-10000", "takes an exponent of at most 4 digits"),
]:
    FLAG_ERRORS[flag].append((value, f"{flag} {rule}, got {value}"))


@pytest.mark.parametrize("flag", FLAG_RUNS)
def test_a_refused_flag_is_named_as_typed(flag, capsys):
    # one error line from main, exit 1, nothing on stdout and no usage line
    for value, message in FLAG_ERRORS[flag]:
        for extra in ([], ["--json"]):
            assert main([*FLAG_RUNS[flag], f"{flag}={value}", *extra]) == 1, value
            assert capsys.readouterr() == ("", f"error: {message}\n"), value


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python writes ints of any length")
def test_a_refused_value_too_long_to_print_exits_1(capsys):
    # Python writes no int past its digit limit (4300 by default), so no check
    # could write such a number in its message: the reader refuses it first,
    # named as typed, as it does every refused value, and a rate in range too
    limit = sys.get_int_max_str_digits()
    for flag, value in (("--r", "1e9999"), ("--seed", "1e9999"), ("--N", "1e-9999"),
                        ("--trials", "1e9999"), ("--epsilon", "1e-9999")):
        for extra in ([], ["--json"]):
            assert main([*FLAG_RUNS[flag], f"{flag}={value}", *extra]) == 1
            message = f"error: {flag} has more than {limit} digits, got {value}\n"
            assert capsys.readouterr() == ("", message), (flag, extra)


@pytest.mark.parametrize("run, flag, value, plain", [
    (FLAG_RUNS["--trials"], "--trials", "1e3", "1000"),
    (FLAG_RUNS["--d"], "--d", "4.0", "4"),
    (FLAG_RUNS["--seed"], "--seed", "7/1", "7"),
    (FLAG_RUNS["--N"], "--N", "18/2", "9"),
], ids=["trials-1e3", "d-4.0", "seed-7/1", "N-18/2"])
def test_equal_spellings_give_the_same_bytes(run, flag, value, plain, capsys):
    for extra in ([], ["--json"]):
        outs = []
        for text in (value, plain):
            assert main([*run, flag, text, *extra]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1] and outs[0].err == ""


def test_simulate_rejects_bad_seed(capsys):
    for seed in ("-1", str(2**64), str(2**128)):
        assert main(["simulate", "catalog:cabello18", "--r", "0.1", f"--seed={seed}"]) == 1
        assert "--seed must lie in [0, 2^64)" in capsys.readouterr().err
    argv = ["simulate", "catalog:cabello18", "--r", "0.1", "--trials", "10"]
    assert main(argv + ["--seed", str(2**64 - 1)]) == 0


@pytest.mark.parametrize("rate", ["1e-300", "5e-324"])
def test_simulate_tiny_rate_exits_at_once(rate):
    # numpy clamps these geometric gaps at 2^63 - 1; unclipped they never end
    argv = [sys.executable, "-m", "ksbound", "simulate", "catalog:cabello18", "--r", rate]
    env = {**os.environ, "PYTHONPATH": str(Path(ksbound.__file__).resolve().parents[1])}
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert "min per-trial defect 1" in done.stdout


@pytest.mark.parametrize("target, rate, trials", [
    ("catalog:cabello18", "0", 10**12),
    ("e7", "1e-300", (2**63 - 1) // 7 - 1),
])
def test_simulate_counts_trials_after_the_last_flip_at_once(tmp_path, target, rate, trials):
    # no flip lands in these runs, whose chunks of 2^30 trial-slots number up to 8.6e9
    if target == "e7":
        target = tmp_path / "e7.ksset"
        vecs = "".join(f"vec e{i} {' '.join('1' if j == i else '0' for j in range(7))}\n" for i in range(7))
        target.write_text(f"ksset 1\nname e7\ndim 7\n{vecs}ctx {' '.join(f'e{i}' for i in range(7))}\n")
    argv = [sys.executable, "-m", "ksbound", "simulate", str(target), "--r", rate, "--trials", str(trials)]
    env = {**os.environ, "PYTHONPATH": str(Path(ksbound.__file__).resolve().parents[1])}
    done = subprocess.run(argv, capture_output=True, text=True, timeout=5, env=env)
    assert done.returncode == 0, done.stderr
    assert f"{trials} trials" in done.stdout


def test_simulate_rejects_run_past_int64_positions(capsys):
    argv = ["simulate", "catalog:cabello18", "--r", "0.1", "--trials", str(10**18)]
    assert main(argv) == 1
    assert "trials * slots must be < 2^63" in capsys.readouterr().err


def test_simulate_rejects_run_of_2_63_minus_1_slots(tmp_path, capsys):
    # 7 slots * 1317624576693539401 trials is 2^63 - 1: a gap to the run's
    # end would not fit int64
    p = tmp_path / "e7.ksset"
    vecs = "".join(f"vec e{i} {' '.join('1' if j == i else '0' for j in range(7))}\n" for i in range(7))
    p.write_text(f"ksset 1\nname e7\ndim 7\n{vecs}ctx {' '.join(f'e{i}' for i in range(7))}\n")
    argv = ["simulate", str(p), "--r", "1e-300", "--trials", str((2**63 - 1) // 7)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "trials * slots must be < 2^63" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["defect", "catalog:cabello18", "--json"],
    ["simulate", "catalog:cabello18", "--r", "0.0142", "--trials", "100", "--json"],
])
def test_command_searches_the_full_set_once(argv, cabello18, monkeypatch, capsys):
    real = ksbound.coloring.find_coloring
    full_searches = []

    def counting(ks):
        if ks.contexts == cabello18.contexts:
            full_searches.append(ks.name)
        return real(ks)

    for name, module in list(sys.modules.items()):
        if name.startswith("ksbound"):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    assert main(argv) == 0
    assert len(full_searches) == 1
    assert json.loads(capsys.readouterr().out)["set"] == "cabello18"


#: SHA-256 of every (argv, exit code, stdout, stderr) in ``test_cli_outputs_are_pinned``.
PINNED_CLI = "09972988cf674d95d3c3271fd756b9c4ead445e414893a40e930fc7c728581ef"

#: The flip rates ``test_cli_outputs_are_pinned`` simulates at; "r*" is the set's
#: critical rate, as ``R_STAR`` pins it.
PINNED_RATES = (0.0, 1e-3, "r*", 0.02, 0.1, 0.5, 1.0)


def test_cli_outputs_are_pinned(two_triads, tmp_path, monkeypatch, capsys):
    # every byte and exit code of every command, in text and --json, on the
    # catalog, peres57, a Q(sqrt 2) set, a colorable set and a set without
    # contexts must match across commits; file names are bare, so the digest
    # holds wherever the suite runs
    monkeypatch.chdir(tmp_path)
    peres = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "peres57.py"))
    files = {
        "peres57.ksset": peres["peres57_document"](),
        "surds.ksset": SURD_SET,
        "two-triads.ksset": serialize_set(two_triads),
        "lonely.ksset": "ksset 1\nname lonely\ndim 3\nvec a 1 0 0\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    sources = {f"catalog:{name}": ksbound.catalog_text(name) for name in ksbound.list_catalog()}
    sources.update(files)
    runs = [["table"], ["critical-r", "--N", "40", "--M", "96", "--d", "3"]]
    for source, text in sources.items():
        ks = parse_document(text).ks_set
        runs += [[cmd, source] for cmd in ("validate", "stats", "color", "defect", "critical-r")]
        runs += [["bounds", source], ["bounds", source, "--delta", "0.005", "--epsilon", "0.01"]]
        for rate in PINNED_RATES:
            if rate == "r*":
                if ks.name not in R_STAR:  # a set without contexts has no r*
                    continue
                rate = R_STAR[ks.name]
            simulate = ["simulate", source, "--r", str(rate), "--trials", "30000"]
            runs += [simulate + ["--seed", seed] for seed in ("7", "123")]
        # the flips end within the first chunk: the rest is counted without them
        runs.append(["simulate", source, "--r", "0", "--trials", str(10**12)])
    outcomes = []
    for argv in runs:
        for args in (argv, argv + ["--json"]):
            code = main(args)
            captured = capsys.readouterr()
            outcomes.append([args, code, captured.out, captured.err])
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == PINNED_CLI


def test_table_text(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    for token in ("Peres", "Kernaghan", "Cabello et al",
                  "0.0032", "0.0034", "0.0035", "0.0043", "0.0097", "0.0142"):
        assert token in out


def test_table_json(capsys):
    assert main(["table", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["r_floor4"] for r in doc["rows"]] == [
        0.0032, 0.0034, 0.0035, 0.0043, 0.0097, 0.0142
    ]


def _fresh_python(code, *args, flags=()):
    """Run ``code`` with ``args`` in a new interpreter, started with
    ``flags``, that imports the ksbound under test."""
    env = {**os.environ, "PYTHONPATH": str(Path(ksbound.__file__).resolve().parents[1])}
    argv = [sys.executable, *flags, "-c", code, *args]
    return subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)


# numpy costs most of the start-up of every command that does not draw;
# dataclasses pulls in inspect, ast, dis and tokenize and generates code per
# record; importlib.resources is loaded by site here, so only -S shows it
IMPORT_GUARD = """\
import json, sys
before = set(sys.modules)
import ksbound, ksbound.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - set(sys.stdlib_module_names) - {"ksbound"})))
heavy = ("numpy", "dataclasses", "inspect", "importlib.resources")
print(json.dumps([name for name in heavy if name in sys.modules]))
"""

RUN_MAIN = """\
import gc, os, runpy, sys
sys.argv = ["ksbound", *sys.argv[1:]]
try:
    runpy.run_module("ksbound", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print("gc enabled:", gc.isenabled(), "frozen:", gc.get_freeze_count() > 0, file=sys.stderr)
if os.path.isdir("/proc/self/task"):
    print("threads:", len(os.listdir("/proc/self/task")), file=sys.stderr)
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_import_loads_only_the_standard_library():
    for flags, allowed in (((), ["importlib.resources"]), (("-S",), [])):
        done = _fresh_python(IMPORT_GUARD, flags=flags)
        assert done.returncode == 0, done.stderr
        outside, heavy_loaded = map(json.loads, done.stdout.splitlines())
        assert outside == []
        assert [name for name in heavy_loaded if name not in allowed] == []


@pytest.mark.parametrize("argv, code", [
    (["validate", "catalog:cabello18"], 0),
    (["stats", "catalog:cabello18", "--json"], 0),
    (["color", "catalog:cabello18"], 2),
    (["defect", "catalog:cabello18", "--json"], 0),
    (["critical-r", "catalog:cabello18"], 0),
    (["bounds", "catalog:cabello18", "--delta", "0.005", "--epsilon", "0.01"], 0),
    (["table", "--json"], 0),
])
def test_exact_commands_do_not_load_numpy(argv, code, capsys):
    done = _fresh_python(RUN_MAIN, *argv)
    assert done.returncode == code, done.stderr
    assert done.stderr.splitlines()[-1] == "numpy loaded: False"
    assert main(argv) == code
    assert done.stdout == capsys.readouterr().out


def test_simulate_loads_numpy_and_prints_the_same_json(capsys):
    argv = ["simulate", "catalog:cabello18", "--r", "0.0142",
            "--trials", "2000", "--seed", "7", "--json"]
    done = _fresh_python(RUN_MAIN, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "numpy loaded: True"
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


# the process entry freezes the heap before and after the command; the
# collector stays on, and in-process main() leaves it as it found it
@pytest.mark.parametrize("argv, code", [
    (["color", "catalog:cabello18"], 2),
    (["simulate", "catalog:cabello18", "--r", "0.0142", "--trials", "2000", "--seed", "7"], 0),
])
def test_process_entry_freezes_the_heap_and_prints_what_main_prints(argv, code, capsys):
    done = _fresh_python(RUN_MAIN, *argv)
    assert done.returncode == code, done.stderr
    assert "gc enabled: True frozen: True" in done.stderr.splitlines()
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(argv) == code
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    assert done.stdout == capsys.readouterr().out


def test_installed_command_is_the_process_entry():
    # read as text: tomllib is not in Python 3.10's standard library
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    entries = [line.split(" = ") for line in section.splitlines() if line.strip()]
    assert entries == [["ksbound", '"ksbound.cli:run"']]
    module, _, name = entries[0][1].strip('"').partition(":")
    assert getattr(importlib.import_module(module), name) is run


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_simulate_runs_openblas_on_one_thread_unless_set(capsys, monkeypatch):
    argv = ["simulate", "catalog:cabello18", "--r", "0.0142",
            "--trials", "2000", "--seed", "7", "--json"]
    outs = []
    # a user's value first, so monkeypatch restores the variable's state from
    # before the test: an in-process simulate sets it, and a child that
    # inherited that "1" would pass for the wrong reason
    for value, threads in (("2", 2), (None, 1)):
        if value is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        done = _fresh_python(RUN_MAIN, *argv)
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines()[-2:] == [f"threads: {threads}", "numpy loaded: True"]
        outs.append(done.stdout)
    assert main(argv) == 0
    assert outs == [capsys.readouterr().out] * 2


def test_only_simulate_sets_openblas_threads_and_keeps_a_users_value(monkeypatch):
    argv = ["simulate", "catalog:cabello18", "--r", "0.0142", "--trials", "200"]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert main(argv) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert main(["validate", "catalog:cabello18"]) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert main(argv) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["nosuchcommand"])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["color", "catalog:cabello18", "--frobnicate"])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 1


def test_help_is_plain_text(capsys):
    # the module docstring is for developers; users get one plain sentence
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == 0
    out = capsys.readouterr().out
    assert "Kochen-Specker vector sets" in out
    for markup in ("``", ":func:", "freeze"):
        assert markup not in out


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_blocks():
    """Each fenced block of README.md as (language, lines)."""
    blocks, lang, block = [], None, None
    for line in README.read_text().splitlines():
        if block is None and line.startswith("```"):
            lang, block = line[3:], []
        elif line == "```":
            blocks.append((lang, block))
            block = None
        elif block is not None:
            block.append(line)
    return blocks


def test_readme_transcripts_are_true(capsys, monkeypatch):
    # each `$ ksbound ...` whose input ships runs through main: stdout matches
    # line by line up to a `...` line, or up to a trailing `...)` within a
    # line, and each `$ echo $?` shows the exit code
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    ran, skipped = [], []
    for lang, lines in _readme_blocks():
        if lang or not lines or not lines[0].startswith("$ ksbound "):
            continue
        steps = []
        for line in lines:
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
        code = None
        for command, expected in steps:
            if command == "echo $?":
                assert code is None or expected == [str(code)], (lines[0], expected)
                continue
            argv = shlex.split(command)[1:]
            if argv[0] != "table" and not any(a.startswith("catalog:") for a in argv):
                skipped.append(command)
                code = None
                continue
            code = main(argv)
            got = capsys.readouterr().out.splitlines()
            for i, want in enumerate(expected):
                if want.strip() == "...":
                    break
                assert i < len(got), (command, want)
                if want.endswith("...)"):
                    assert got[i].startswith(want[:-4]), (command, got[i])
                else:
                    assert got[i] == want, (command, got[i])
            else:
                assert len(got) == len(expected), (command, got)
            ran.append(argv[0])
    assert ran == ["table", "stats", "color", "defect", "bounds", "critical-r", "simulate"]
    assert skipped == ["ksbound validate bad.ksset"]


def test_readme_library_example_prints_what_its_comments_say(capsys):
    (code,) = [lines for lang, lines in _readme_blocks() if lang == "python"]
    exec(compile("\n".join(code), str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "False"
    r, floor4 = out[1].split()
    assert r.startswith("0.0142136134") and floor4 == "0.0142"
    mean, least = out[2].split()
    assert round(float(mean), 2) == 1.92 and least == "1"
    assert out[3:] == ["1", "(1, 0)"]
