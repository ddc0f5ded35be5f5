"""Command-line front end.

Exit codes are part of the contract: 0 = valid / colorable / report produced,
2 = KS contradiction (``color`` on an uncolorable set), 1 = usage, I/O, or
parse errors.  Parse diagnostics carry ``source:line:`` prefixes.  ``--json``
emits a schema-stable document that is byte-deterministic for fixed inputs
and seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from .bounds import (
    critical_rate,
    delta_lower_bound,
    format_table,
    inequality_margin,
    table_report,
)
from .coloring import find_coloring, min_defect, validate_orthogonality
from .format import ParseError, SetDocument, catalog_text, parse_document
from .model import build_stats
from .simulate import TrialModel, default_base, empirical_inequality_check, simulate_model

CATALOG_PREFIX = "catalog:"


class CliError(Exception):
    """Fatal CLI failure; message goes to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means "KS set" here.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_source(source: str) -> str:
    if source.startswith(CATALOG_PREFIX):
        name = source[len(CATALOG_PREFIX) :]
        try:
            return catalog_text(name)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    try:
        return Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror or exc.__class__.__name__
        raise CliError(f"cannot read {source}: {reason}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {source}: not valid UTF-8") from exc


def _load_document(source: str) -> SetDocument:
    text = _read_source(source)
    try:
        return parse_document(text, source=source)
    except ParseError as exc:
        raise CliError(f"{source}:{exc.line}: {exc.message}") from exc


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = _load_document(args.set)
    ks = doc.ks_set
    report = validate_orthogonality(ks)
    if args.json:
        _emit_json(
            {
                "set": ks.name,
                "source": args.set,
                "valid": report.ok,
                "violations": [
                    {
                        "kind": v.kind,
                        "message": v.message,
                        "context_index": v.context_index,
                        "vector_ids": list(v.vector_ids),
                    }
                    for v in report.violations
                ],
            }
        )
    elif report.ok:
        print(
            f"{ks.name}: valid ({len(ks.vectors)} vectors, "
            f"{len(ks.contexts)} contexts, dimension {ks.dimension})"
        )
    else:
        for v in report.violations:
            print(f"{ks.name}: {v.message}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    ks = _load_document(args.set).ks_set
    stats = build_stats(ks)
    histogram = Counter(stats.multiplicities.values())
    if args.json:
        _emit_json(
            {
                "set": ks.name,
                "dimension": ks.dimension,
                "n": stats.n,
                "N": stats.N,
                "M": stats.M,
                "m_all_pairs": stats.m_all_pairs,
                "m_override": ks.m_override,
                "multiplicity_histogram": {
                    str(k): histogram[k] for k in sorted(histogram)
                },
            }
        )
        return 0
    print(f"set        {ks.name}")
    print(f"dimension  {ks.dimension}")
    print(f"n          {stats.n}")
    if ks.m_override is None:
        print(f"N          {stats.N}")
        print(f"M          {stats.M}")
    else:
        print(f"N          {stats.N}")
        print(f"M          {stats.M} (declared override; all-pairs count {stats.m_all_pairs})")
    print("multiplicity histogram:")
    for k in sorted(histogram):
        print(f"  in {k} contexts: {histogram[k]} vectors")
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    ks = _load_document(args.set).ks_set
    result = find_coloring(ks)
    if args.json:
        _emit_json(
            {
                "set": ks.name,
                "colorable": result.satisfiable,
                "nodes": result.nodes,
                "assignment": dict(result.assignment) if result.assignment else None,
            }
        )
        return 0 if result.satisfiable else 2
    if result.satisfiable:
        assert result.assignment is not None
        print(f"{ks.name}: colorable ({result.nodes} search nodes)")
        for v in ks.vectors:
            print(f"  {v.id} = {result.assignment[v.id]}")
        return 0
    print(
        f"{ks.name}: no non-contextual assignment exists "
        f"(KS set; {result.nodes} search nodes)"
    )
    return 2


def _cmd_defect(args: argparse.Namespace) -> int:
    ks = _load_document(args.set).ks_set
    report = min_defect(ks)
    if args.json:
        witness = [
            [ci, pos, report.witness[(ci, pos)]]
            for ci in range(len(ks.contexts))
            for pos in range(ks.dimension)
        ]
        _emit_json(
            {
                "set": ks.name,
                "d_min": report.d_min,
                "sum_defects": report.sum_defects,
                "connection_defects": report.connection_defects,
                "nodes": report.nodes,
                "witness": witness,
            }
        )
        return 0
    print(f"set {ks.name}")
    print(f"d_min {report.d_min}")
    print(
        f"witness breakdown: {report.sum_defects} context sum defects, "
        f"{report.connection_defects} connection defects"
    )
    print(f"nodes {report.nodes}")
    print("witness slots (context: values):")
    for ci, ctx in enumerate(ks.contexts):
        row = " ".join(str(report.witness[(ci, p)]) for p in range(ks.dimension))
        print(f"  {ci}: {row}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    for flag, rate in (("--delta", args.delta), ("--epsilon", args.epsilon)):
        if not 0 <= rate <= 1:  # also rejects nan
            raise CliError(f"{flag} must lie in [0, 1]")
    ks = _load_document(args.set).ks_set
    stats = build_stats(ks)
    margin = inequality_margin(stats.M, stats.N, args.delta, args.epsilon)
    try:
        floor = delta_lower_bound(stats.N, stats.M, args.epsilon)
    except ValueError as exc:  # a set with no connections has no delta floor
        raise CliError(str(exc)) from exc
    if args.json:
        _emit_json(
            {
                "set": ks.name,
                "d": ks.dimension,
                "N": stats.N,
                "M": stats.M,
                "delta": args.delta,
                "epsilon": args.epsilon,
                "margin": margin.margin,
                "contradiction": margin.contradiction,
                "delta_min": floor.value,
                "delta_min_vacuous": floor.vacuous,
            }
        )
        return 0
    print(f"set {ks.name}: d={ks.dimension} N={stats.N} M={stats.M}")
    print(f"delta={args.delta} epsilon={args.epsilon}")
    print(f"margin 1 - M*delta - N*epsilon = {margin.margin}")
    if margin.contradiction:
        print("verdict: contradiction (no non-contextual model fits these rates)")
    else:
        print("verdict: no contradiction at these rates")
    if floor.vacuous:
        print("delta floor: vacuous (epsilon >= 1/N)")
    else:
        print(f"delta floor: any non-contextual model needs delta >= {floor.value}")
    return 0


def _cmd_critical_r(args: argparse.Namespace) -> int:
    name: Optional[str] = None
    if args.set is not None:
        if args.N is not None or args.M is not None or args.d is not None:
            raise CliError("give either a set or explicit --N/--M/--d, not both")
        ks = _load_document(args.set).ks_set
        stats = build_stats(ks)
        name, n_ctx, m_conn, dim = ks.name, stats.N, stats.M, ks.dimension
    else:
        if args.N is None or args.M is None or args.d is None:
            raise CliError("critical-r needs a set or all of --N, --M, --d")
        n_ctx, m_conn, dim = args.N, args.M, args.d
    try:
        rate = critical_rate(n_ctx, m_conn, dim)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.json:
        _emit_json(
            {
                "set": name,
                "d": dim,
                "N": n_ctx,
                "M": m_conn,
                "r_critical": rate.r,
                "r_floor4": rate.floor4,
                "iterations": rate.iterations,
                "bracket": [rate.bracket_low, rate.bracket_high],
            }
        )
        return 0
    if name is not None:
        print(f"set {name}: N={n_ctx} M={m_conn} d={dim}")
    else:
        print(f"N={n_ctx} M={m_conn} d={dim}")
    print(f"critical rate r* = {rate.r:.12g}")
    print(f"4-decimal floor  = {rate.floor4:.4f}")
    print(
        f"bisection: {rate.iterations} iterations, final bracket "
        f"[{rate.bracket_low:.15g}, {rate.bracket_high:.15g}]"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise CliError("--trials must be >= 1")
    if not 0 <= args.r <= 1:
        raise CliError("--r must lie in [0, 1]")
    if not 0 <= args.seed < 2**64:
        raise CliError("--seed must lie in [0, 2^64)")
    ks = _load_document(args.set).ks_set
    stats = build_stats(ks)
    report = min_defect(ks)
    colorable = report.d_min == 0
    base = default_base(ks, report)
    model = TrialModel(ks_set=ks, base=base, flip_rate=args.r, seed=args.seed)
    try:
        summary = simulate_model(model, args.trials)
    except ValueError as exc:  # trials * slots past the int64 position range
        raise CliError(str(exc)) from exc
    verdict = (
        empirical_inequality_check(summary, stats, verified_uncolorable=True)
        if not colorable
        else None
    )
    if args.json:
        doc = {"set": ks.name}
        doc.update(summary.to_json_dict())
        doc["colorable"] = colorable
        doc["inequality"] = (
            None
            if verdict is None
            else {
                "holds": verdict.holds,
                "mean_total_defect": verdict.mean_total_defect,
                "min_trial_defect": verdict.min_trial_defect,
                "delta_hat_max": verdict.delta_hat_max,
                "epsilon_hat_max": verdict.epsilon_hat_max,
                "implied_lhs": verdict.implied_lhs,
            }
        )
        _emit_json(doc)
        return 0
    print(f"set {ks.name}: {args.trials} trials, r={args.r}, seed={args.seed}")
    kind = "a satisfying coloring" if colorable else "a minimum-defect witness"
    print(f"base assignment: {kind}")
    print(f"mean total defect   {summary.mean_total_defect:.6f}")
    print(f"min per-trial defect {summary.min_trial_defect}")
    print(
        f"max delta_hat {max(summary.delta_hat, default=0.0):.6f}   "
        f"max epsilon_hat {max(summary.epsilon_hat, default=0.0):.6f}"
    )
    if verdict is None:
        print("empirical inequality: not applicable (set is colorable)")
    elif verdict.holds:
        print(
            "empirical inequality: holds (every trial violated at least one "
            f"constraint; M*max(delta_hat) + N*max(epsilon_hat) = {verdict.implied_lhs:.6f})"
        )
    else:
        print("empirical inequality: VIOLATED (this should be impossible on a KS set)")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    report = table_report()
    if args.json:
        _emit_json({"rows": report.to_json_rows()})
    else:
        print(format_table(report))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ksbound", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, helptext: str, with_set: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=helptext, parents=[common])
        if with_set:
            p.add_argument(
                "set", help=f"set source: a file path or {CATALOG_PREFIX}<name>"
            )
        return p

    add("validate", "check structure and exact orthogonality").set_defaults(
        func=_cmd_validate
    )
    add("stats", "report n, N, M and the multiplicity histogram").set_defaults(
        func=_cmd_stats
    )
    add("color", "search for a non-contextual 0/1 assignment").set_defaults(
        func=_cmd_color
    )
    add("defect", "minimum combined constraint-violation count").set_defaults(
        func=_cmd_defect
    )

    p = add("bounds", "inequality margin and delta floor at given error rates")
    p.add_argument("--delta", type=float, default=0.0, help="rotation mismatch rate")
    p.add_argument("--epsilon", type=float, default=0.0, help="context sum error rate")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "critical-r",
        help="largest flip rate still forcing a contradiction",
        parents=[common],
    )
    p.add_argument(
        "set",
        nargs="?",
        default=None,
        help=f"set source: a file path or {CATALOG_PREFIX}<name>",
    )
    p.add_argument("--N", type=int, default=None, help="context count")
    p.add_argument("--M", type=int, default=None, help="connection count")
    p.add_argument("--d", type=int, default=None, help="dimension")
    p.set_defaults(func=_cmd_critical_r)

    p = add("simulate", "seeded Monte Carlo run of the independent-error model")
    p.add_argument("--r", type=float, required=True, help="independent flip rate")
    p.add_argument("--trials", type=int, default=100_000, help="number of trials")
    p.add_argument("--seed", type=int, default=0, help="64-bit stream seed")
    p.set_defaults(func=_cmd_simulate)

    add("table", "published parameter rows with computed critical rates", with_set=False).set_defaults(
        func=_cmd_table
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
