"""CLI behavior: commands, exit codes, diagnostics, JSON determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ksbound
from ksbound.cli import main

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


def test_color_json_exit_codes(good_file, capsys):
    assert main(["color", good_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["colorable"] is True
    values = set(doc["assignment"].values())
    assert values <= {0, 1}
    assert main(["color", "catalog:kernaghan20", "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["colorable"] is False and doc["assignment"] is None


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


def test_bounds_rejects_bad_rates(capsys):
    for flag, other in (("--delta", "--epsilon"), ("--epsilon", "--delta")):
        for value in ("nan", "inf", "-inf", "-5", "7", "1.0001", "-0.0001"):
            argv = ["bounds", "catalog:cabello18", f"{flag}={value}", other, "0.001"]
            assert main(argv) == 1, (flag, value)
            assert f"{flag} must lie in [0, 1]" in capsys.readouterr().err
    assert main(["bounds", "catalog:cabello18", "--delta", "1", "--epsilon", "0"]) == 0


def test_bounds_without_connections_exits_1(good_file, capsys):
    assert main(["bounds", good_file, "--delta", "0.01"]) == 1
    captured = capsys.readouterr()
    assert "error: M must be >= 1" in captured.err
    assert "Traceback" not in captured.err


def test_critical_r_from_parameters(capsys):
    assert main(["critical-r", "--N", "9", "--M", "18", "--d", "4"]) == 0
    out = capsys.readouterr().out
    assert "0.0142" in out


def test_critical_r_from_catalog(capsys):
    assert main(["critical-r", "catalog:kernaghan-peres36", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["M"] == 72 and doc["d"] == 8
    assert doc["r_floor4"] == 0.0043


def test_critical_r_requires_parameters_or_set(capsys):
    assert main(["critical-r"]) == 1
    assert "needs a set or all of" in capsys.readouterr().err
    assert main(["critical-r", "catalog:cabello18", "--N", "9"]) == 1
    assert "not both" in capsys.readouterr().err


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


def test_simulate_json_byte_deterministic(capsys):
    argv = ["simulate", "catalog:kernaghan20", "--r", "0.1",
            "--trials", "3000", "--seed", "11", "--json"]
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


def test_simulate_rejects_run_past_int64_positions(capsys):
    argv = ["simulate", "catalog:cabello18", "--r", "0.1", "--trials", str(10**18)]
    assert main(argv) == 1
    assert "trials * slots must be < 2^63" in capsys.readouterr().err


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
