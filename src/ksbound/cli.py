"""Command-line front end.

Exit codes are part of the contract: 0 = valid / colorable / report produced,
2 = KS contradiction (``color`` on an uncolorable set), 1 = usage, I/O, or
parse errors.  Parse diagnostics carry ``source:line:`` prefixes.  ``--json``
emits a schema-stable document that is byte-deterministic for fixed inputs
and seed.  Stdout carries one report, empty on exit 1; diagnostics go to
stderr.  A reader that closes stdout early gets exit 1 and no diagnostic.

One error path: a rejected input, whether a flag, a file or a set, raises
``ValueError`` (a ``ParseError`` is one) or ``OverflowError`` (a count past
float range meeting a float rate, or an exact value that a reported float
cannot carry, such as a critical rate below the least positive float),
and :func:`main` alone prints it as ``error: <message>`` and returns 1.  The
flags' rules are the library's own checks, given the flag's name.  An
internal fault is an ``AssertionError`` and ends in a traceback.

Every numeric flag, a rate or a count, is read by one reader,
:func:`_flag`, in one grammar: a decimal such as ``0.026`` or ``1e3``, or a
ratio such as ``1/72``, as the exact number it names.  A count (``--N``,
``--M``, ``--d``, ``--trials``, ``--seed``) must name an integer, so
``--trials 1e3`` reads 1000 and ``--N 1.5`` is refused.  A refused value is
named as typed: ``error: --N must be an integer, got 1.5``.

The inequality rules out non-contextual models only on a KS set, so
``bounds`` and ``critical-r`` run :func:`find_coloring` on a set after
reading their flags: on a colorable one, ``bounds`` reports no
contradiction and ``critical-r`` exits 1.

:func:`main` is the library entry and leaves the garbage collector alone.
:func:`run` is the process entry (``python -m ksbound`` and the installed
``ksbound`` command): it freezes the collector's view of the heap before and
after the command, so no collection walks the start-up objects or, at exit,
what the command built.  Output is byte-identical either way.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional, Sequence

from .bounds import check_rate, critical_rate, delta_lower_bound, inequality_margin, table_report
from .coloring import find_coloring, min_defect
from .format import ParseError, catalog_text, parse_document
from .model import MAX_DIMENSION, KsSet, build_stats, check_dimension, check_integer
from .simulate import TrialModel, check_seed, default_base, simulate_model

CATALOG_PREFIX = "catalog:"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means "KS set" here.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_set(source: str) -> KsSet:
    if source.startswith(CATALOG_PREFIX):
        text = catalog_text(source[len(CATALOG_PREFIX) :])
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as exc:
            reason = exc.strerror or exc.__class__.__name__
            raise ValueError(f"cannot read {source}: {reason}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"cannot read {source}: not valid UTF-8") from exc
    try:
        return parse_document(text).ks_set
    except ParseError as exc:
        raise ValueError(f"{source}:{exc.line}: {exc.message}") from exc


def _flag(text: str, name: str, check: Callable[..., Any], *least: int) -> Any:
    """The value of a numeric flag, as the library's ``check`` returns it
    given the flag's name (and ``least``, for ``check_integer``).

    The text is read as the exact number it names: a decimal such as
    ``0.026``, one with an exponent of at most 4 digits such as ``1e-3``, or
    a ratio such as ``1/72``; every spelling ``int()`` takes reads as it
    does.  An integer reads as an int, so ``1e3``, ``1000.0`` and ``2000/2``
    all read 1000, and any other number as a Fraction, which the integer
    checks refuse.  Text that names no number, ``nan``, ``inf`` and ``1/0``
    among them, reads as nan, which every check refuses.  A refused value's
    message ends in the text as typed.  A number whose exact value has more
    digits than Python writes out (4300 by default), such as ``1e9999`` or
    ``1e-9999``, is refused before any check, which could not write it.
    """
    # Fraction writes out 10**|exponent| before any check can run
    if len(text.lower().partition("e")[2].strip().lstrip("+-0")) > 4:
        raise ValueError(f"{name} takes an exponent of at most 4 digits, got {text}")
    try:
        number = Fraction(text)
        value = number.numerator if number.denominator == 1 else number
    except (ValueError, ZeroDivisionError):
        value = float("nan")
    try:
        str(value)  # a check's message writes the value; Python refuses past its int limit
    except ValueError:
        raise ValueError(
            f"{name} has more than {sys.get_int_max_str_digits()} digits, got {text}"
        ) from None
    try:
        return check(value, name, *least)
    except ValueError as exc:
        rule = str(exc).rpartition(" got ")[0]  # every check's message ends in "got <value>"
        raise ValueError(f"{rule} got {text}") from None


# Each handler returns (exit code, JSON document, text lines) and does no I/O;
# main prints one of the two reports.


def _cmd_validate(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    # the parser runs every check KsSet runs, so a document that loads is a
    # valid set and there is nothing left to report
    ks = _load_set(args.set)
    doc = {"set": ks.name, "source": args.set, "valid": True, "violations": []}
    text = [
        f"{ks.name}: valid ({len(ks.vectors)} vectors, "
        f"{len(ks.contexts)} contexts, dimension {ks.dimension})"
    ]
    return 0, doc, text


def _cmd_stats(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    ks = _load_set(args.set)
    stats = build_stats(ks)
    histogram = Counter(stats.multiplicities.values())
    doc = {
        "set": ks.name,
        "dimension": ks.dimension,
        "n": stats.n,
        "N": stats.N,
        "M": stats.M,
        "m_all_pairs": stats.m_all_pairs,
        "m_override": ks.m_override,
        "multiplicity_histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
    m_line = f"M          {stats.M}"
    if ks.m_override is not None:
        m_line += f" (declared override; all-pairs count {stats.m_all_pairs})"
    text = [
        f"set        {ks.name}",
        f"dimension  {ks.dimension}",
        f"n          {stats.n}",
        f"N          {stats.N}",
        m_line,
        "multiplicity histogram:",
    ]
    text += [f"  in {k} contexts: {histogram[k]} vectors" for k in sorted(histogram)]
    return 0, doc, text


def _cmd_color(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    ks = _load_set(args.set)
    result = find_coloring(ks)
    doc = {
        "set": ks.name,
        "colorable": result.satisfiable,
        "nodes": result.nodes,
        "assignment": result.assignment,
    }
    if not result.satisfiable:
        text = [
            f"{ks.name}: no non-contextual assignment exists "
            f"(KS set; {result.nodes} search nodes)"
        ]
        return 2, doc, text
    assert result.assignment is not None
    text = [f"{ks.name}: colorable ({result.nodes} search nodes)"]
    text += [f"  {v.id} = {result.assignment[v.id]}" for v in ks.vectors]
    return 0, doc, text


def _cmd_defect(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    ks = _load_set(args.set)
    report = min_defect(ks)
    sum_defects, connection_defects = report.d_min, 0  # min_defect proved this breakdown
    d = ks.dimension
    rows = [report.witness[s : s + d] for s in range(0, len(report.witness), d)]
    doc = {
        "set": ks.name,
        "d_min": report.d_min,
        "sum_defects": sum_defects,
        "connection_defects": connection_defects,
        "nodes": report.nodes,
        "witness": [
            [ci, pos, value] for ci, row in enumerate(rows) for pos, value in enumerate(row)
        ],
    }
    text = [
        f"set {ks.name}",
        f"d_min {report.d_min}",
        f"witness breakdown: {sum_defects} context sum defects, "
        f"{connection_defects} connection defects",
        f"nodes {report.nodes}",
        "witness slots (context: values):",
    ]
    text += [f"  {ci}: {' '.join(map(str, row))}" for ci, row in enumerate(rows)]
    return 0, doc, text


def _reported(value: Fraction | int, name: str) -> float:
    # the correctly rounded float of an exact value; float() refuses one past
    # float range with OverflowError, and a nonzero value that rounds to 0 is
    # refused the same way
    rounded = float(value)
    if value and not rounded:
        raise OverflowError(f"{name} is too small for a float")
    return rounded


def _cmd_bounds(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    delta = _flag(args.delta, "--delta", check_rate)
    epsilon = _flag(args.epsilon, "--epsilon", check_rate)
    ks = _load_set(args.set)
    stats = build_stats(ks)
    # a coloring is a non-contextual model with no errors at all, so the
    # inequality rules nothing out on a colorable set
    colorable = find_coloring(ks).satisfiable
    margin = inequality_margin(stats.M, stats.N, delta, epsilon)
    floor = 0 if colorable else delta_lower_bound(stats.N, stats.M, epsilon)
    doc = {
        "set": ks.name,
        "d": ks.dimension,
        "N": stats.N,
        "M": stats.M,
        "delta": _reported(delta, "delta"),
        "epsilon": _reported(epsilon, "epsilon"),
        "margin": _reported(margin, "margin"),
        "contradiction": not colorable and margin > 0,
        "delta_min": _reported(floor, "delta_min"),
        "delta_min_vacuous": floor == 0,
    }
    if colorable:
        verdict = "no contradiction (the set is colorable)"
    elif margin > 0:
        verdict = "contradiction (no non-contextual model fits these rates)"
    else:
        verdict = "no contradiction at these rates"
    vacuous = "the set is colorable" if colorable else "epsilon >= 1/N"
    text = [
        f"set {ks.name}: d={ks.dimension} N={stats.N} M={stats.M}",
        f"delta={doc['delta']} epsilon={doc['epsilon']}",
        f"margin 1 - M*delta - N*epsilon = {doc['margin']}",
        f"verdict: {verdict}",
        f"delta floor: vacuous ({vacuous})"
        if floor == 0
        else f"delta floor: any non-contextual model needs delta >= {doc['delta_min']}",
    ]
    return 0, doc, text


def _cmd_critical_r(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    name: Optional[str] = None
    n_ctx = None if args.N is None else _flag(args.N, "--N", check_integer, 1)
    m_conn = None if args.M is None else _flag(args.M, "--M", check_integer, 1)
    dim = None if args.d is None else _flag(args.d, "--d", check_dimension)
    if args.set is not None:
        if n_ctx is not None or m_conn is not None or dim is not None:
            raise ValueError("give either a set or explicit --N/--M/--d, not both")
        ks = _load_set(args.set)
        if find_coloring(ks).satisfiable:  # its coloring fits every rate
            raise ValueError(f"set {ks.name} is colorable, so no flip rate gives a contradiction")
        stats = build_stats(ks)
        name, n_ctx, m_conn, dim = ks.name, stats.N, stats.M, ks.dimension
    elif n_ctx is None or m_conn is None or dim is None:
        raise ValueError("critical-r needs a set or all of --N, --M, --d")
    rate = critical_rate(n_ctx, m_conn, dim)
    doc = {
        "set": name,
        "d": dim,
        "N": n_ctx,
        "M": m_conn,
        "r_critical": rate.r,
        "r_floor4": rate.floor4,
        "iterations": rate.iterations,
        "bracket": [rate.bracket_low, rate.bracket_high],
    }
    params = f"N={n_ctx} M={m_conn} d={dim}"
    text = [
        params if name is None else f"set {name}: {params}",
        f"critical rate r* = {rate.r:.12g}",
        f"4-decimal floor  = {rate.floor4:.4f}",
        f"bisection: {rate.iterations} iterations, final bracket "
        f"[{rate.bracket_low!r}, {rate.bracket_high!r}]",
    ]
    return 0, doc, text


def _cmd_simulate(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    # ksbound calls no BLAS routine, and one thread keeps numpy's first import
    # from starting OpenBLAS's worker pool: about 70 ms of a ~280 ms child (2 cores)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    trials = _flag(args.trials, "--trials", check_integer, 1)
    r = _reported(_flag(args.r, "--r", check_rate), "--r")
    seed = _flag(args.seed, "--seed", check_seed)
    ks = _load_set(args.set)
    report = min_defect(ks)
    colorable = report.d_min == 0
    base = default_base(ks, report)
    model = TrialModel(ks_set=ks, base=base, flip_rate=r, seed=seed)
    summary = simulate_model(model, trials)
    delta_max = max(summary.delta_hat, default=0.0)
    epsilon_max = max(summary.epsilon_hat, default=0.0)
    inequality = None
    if not colorable:  # d_min >= 1: every trial must break a constraint
        inequality = {
            "holds": summary.min_trial_defect >= 1,
            "mean_total_defect": summary.mean_total_defect,
            "min_trial_defect": summary.min_trial_defect,
            "delta_hat_max": delta_max,
            "epsilon_hat_max": epsilon_max,
            # M and N are the counters' lengths: M is the all-pairs count
            # (76 on kernaghan-peres36), never the set's override (72)
            "implied_lhs": len(summary.connection_mismatch_counts) * delta_max
            + len(summary.context_error_counts) * epsilon_max,
        }
    doc = {
        "set": ks.name,
        "seed": summary.seed,
        "stream": "philox-geometric",
        "trials": summary.trials,
        "r": summary.r,
        "delta_hat": list(summary.delta_hat),
        "epsilon_hat": list(summary.epsilon_hat),
        "mean_defect": summary.mean_total_defect,
        "colorable": colorable,
        "inequality": inequality,
    }
    kind = "a satisfying coloring" if colorable else "a minimum-defect witness"
    text = [
        f"set {ks.name}: {trials} trials, r={r}, seed={seed}",
        f"base assignment: {kind}",
        f"mean total defect   {summary.mean_total_defect:.6f}",
        f"min per-trial defect {summary.min_trial_defect}",
        f"max delta_hat {delta_max:.6f}   max epsilon_hat {epsilon_max:.6f}",
    ]
    if inequality is None:
        text.append("empirical inequality: not applicable (set is colorable)")
    elif inequality["holds"]:
        text.append(
            "empirical inequality: holds (every trial violated at least one "
            f"constraint; M*max(delta_hat) + N*max(epsilon_hat) = {inequality['implied_lhs']:.6f})"
        )
    else:
        text.append("empirical inequality: VIOLATED (this should be impossible on a KS set)")
    return 0, doc, text


def _cmd_table(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    header = f"{'set':<20}{'d':>3}{'n':>10}{'N':>5}{'M':>5}   r"
    rows, text = [], [header, "-" * len(header)]
    for row, crit in table_report():
        rows.append(
            {
                "name": row.name,
                "d": row.d,
                "n": int(row.n_label) if row.n_label.isdigit() else row.n_label,
                "N": row.N,
                "M": row.M,
                "r_critical": crit.r,
                "r_floor4": crit.floor4,
            }
        )
        text.append(
            f"{row.name:<20}{row.d:>3}{row.n_label:>10}{row.N:>5}{row.M:>5}   {crit.floor4:.4f}"
        )
    return 0, {"rows": rows}, text


def build_parser() -> _Parser:
    parser = _Parser(prog="ksbound", description="Kochen-Specker vector sets: exact "
                     "uncolorability proofs, error-rate bounds, and seeded noise simulation.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(
        name: str,
        helptext: str,
        func: Callable[[argparse.Namespace], tuple[int, dict, list[str]]],
        with_set: bool = True,
        nargs: Optional[str] = None,
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=helptext, parents=[common])
        if with_set:
            p.add_argument(
                "set", nargs=nargs, help=f"set source: a file path or {CATALOG_PREFIX}<name>"
            )
        p.set_defaults(func=func)
        return p

    add("validate", "check structure and exact orthogonality", _cmd_validate)
    add("stats", "report n, N, M and the multiplicity histogram", _cmd_stats)
    add("color", "search for a non-contextual 0/1 assignment", _cmd_color)
    add("defect", "minimum combined constraint-violation count", _cmd_defect)

    p = add("bounds", "inequality margin and delta floor at given error rates", _cmd_bounds)
    p.add_argument("--delta", default="0", help="rotation mismatch rate, such as 0.026 or 1/72")
    p.add_argument("--epsilon", default="0", help="context sum error rate, read as --delta")

    p = add("critical-r", "largest flip rate still forcing a contradiction on a KS set, or "
            "a calculator over --N, --M and --d that checks no set", _cmd_critical_r, nargs="?")
    p.add_argument("--N", help="context count: an integer >= 1, such as 9 or 1e3")
    p.add_argument("--M", help="connection count: an integer >= 1")
    p.add_argument("--d", help=f"dimension: an integer from 3 to {MAX_DIMENSION}")

    p = add("simulate", "seeded Monte Carlo run of the independent-error model", _cmd_simulate)
    p.add_argument("--r", required=True, help="independent flip rate, read as bounds --delta")
    p.add_argument("--trials", default="100000", help="number of trials: an integer >= 1, such as 1e5")
    p.add_argument("--seed", default="0", help="stream seed: an integer in [0, 2^64)")

    add(
        "table", "published parameter rows with computed critical rates", _cmd_table, with_set=False
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, doc, text = args.func(args)
    # a rejected input raises ValueError (a ParseError is one; so are a KS
    # set with an m-override of 0, which has no delta floor, a colorable set
    # given to critical-r, and a simulate run past int64 positions) or
    # OverflowError (a count past float range meets a float rate, or a rate,
    # bounds value or critical rate that no float carries); an internal fault
    # is an AssertionError and keeps its traceback
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(doc, indent=2) if args.json else "\n".join(text), flush=True)
    except BrokenPipeError:
        # the reader closed stdout early; the exit-time flush would raise
        # again, so point fd 1 at devnull (the Python docs' note on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def run() -> NoReturn:
    """Run :func:`main` as the whole process, then exit with its code.

    The first ``gc.freeze()`` keeps the command's collections, numpy's import
    in ``simulate`` among them, from walking the interpreter's and ksbound's
    objects, which live until exit anyway.  The second keeps the collections
    at interpreter exit from walking what the command built.  The collector
    stays enabled, so the command's own cycles are still freed.  Exit goes
    through ``sys.exit``, so ``atexit`` callbacks run, and a usage error or
    ``--help`` leaves ``main`` by ``SystemExit`` as before.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
