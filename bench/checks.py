"""Correctness checks the benchmark applies to every operation.

The expected values are the published ones (README and results table), not
outputs of the program under test.  A check returns ``None`` when the
operation passed and a one-line failure otherwise; :func:`classify` maps a
failure to a known defect listed in ROADMAP.md, or to "unclassified".  A
run is correct only while every failure it saw is a known defect.
"""
from __future__ import annotations

import json
import math
import re
from typing import Any, Optional

#: name -> n, N, M (as reported), all-pairs M, 4-decimal r* floor
SETS = {
    "cabello18": (18, 9, 18, 18, 0.0142),
    "kernaghan20": (20, 11, 30, 30, 0.0097),
    "kernaghan-peres36": (36, 11, 72, 76, 0.0043),
    "peres57": (57, 40, 96, 96, 0.0032),
}
TABLE_FLOORS = {"Peres": 0.0032, "Kochen & Conway": 0.0034, "Schutte": 0.0035,
                "Kernaghan & Peres": 0.0043, "Kernaghan": 0.0097, "Cabello et al": 0.0142}

KNOWN_DEFECTS = (
    (re.compile(r"ValueError: invalid literal for int\(\) with base 10: '[^']*[^\x00-\x7f][^']*'"),
     "known (ROADMAP defects): str.isdigit accepts non-decimal digits in dim/field/m-override"),
)


def classify(failure: str) -> str:
    """The known ROADMAP defect a failure shows, or "unclassified"."""
    for pattern, label in KNOWN_DEFECTS:
        if pattern.search(failure):
            return label
    return "unclassified"


def is_known(failure: str) -> bool:
    """A run stays correct only while every failure is a known defect."""
    return classify(failure) != "unclassified"


# ---------------------------------------------------------------- ingest

def ingest_op(kb: Any, text: str) -> tuple[Optional[Any], Optional[Any], Optional[BaseException]]:
    """The timed ingest operation: parse, then validate and count if accepted.

    Returns (set, validation report, exception); the statistics are part of
    the operation because the acceptance identities below are read off them.
    """
    try:
        doc = kb.parse_document(text)
    except Exception as exc:  # judged by check_ingest, never re-raised
        return None, None, exc
    ks = doc.ks_set
    return ks, (kb.validate_orthogonality(ks), kb.build_stats(ks)), None


def check_ingest(kb: Any, ks: Any, reports: Any, exc: Optional[BaseException]) -> Optional[str]:
    """Criterion 7: a rejection is a ParseError with its line; an acceptance
    is a fully valid set satisfying the structural identities."""
    if exc is not None:
        if not isinstance(exc, kb.ParseError):
            return f"non-ParseError {type(exc).__name__}: {exc}"
        if not (isinstance(exc.line, int) and exc.line >= 1 and f"at line {exc.line}" in str(exc)):
            return f"ParseError without its line: {exc}"
        return None
    report, st = reports
    if not report.ok:
        return "accepted a document that fails validate_orthogonality: " + report.violations[0].message
    d = ks.dimension
    if not (sum(st.multiplicities.values()) == st.N * d
            and all(len(v.components) == d for v in ks.vectors)
            and all(len(c.vector_ids) == d for c in ks.contexts)):
        return "accepted a document that breaks the structural identities"
    return None


# ---------------------------------------------------------------- cli

def check_cli(cmd: str, set_name: Optional[str], expect_code: int,
              code: int, out: str, err: str) -> Optional[str]:
    """Exit code, no traceback, and the JSON verdict of one CLI process.

    A malformed file must end in exit 1 with a ``source:line:`` message, or
    in exit 0 with a ``valid`` verdict when the mutation left a valid set.
    """
    if "Traceback (most recent call last)" in err:
        return "traceback: " + err.strip().splitlines()[-1]
    if cmd == "validate-malformed" and code == 1:
        return None if re.match(r"error: \S+:\d+: ", err) else "rejection without a source:line: message"
    if code != expect_code:
        return f"exit code {code}, expected {expect_code}"
    try:
        doc = json.loads(out)
        if cmd == "table":
            got = {row["name"]: row["r_floor4"] for row in doc["rows"]}
            return None if got == TABLE_FLOORS else f"table floors {got}"
        if cmd == "validate-malformed":
            return None if doc["valid"] is True else "wrong validate verdict"
        n, N, M, m_all, floor = SETS[set_name]
        wrong = {
            "validate": lambda: doc["valid"] is not True,
            "stats": lambda: (doc["n"], doc["N"], doc["M"], doc["m_all_pairs"]) != (n, N, M, m_all),
            "color": lambda: doc["colorable"] is not False,
            "defect": lambda: doc["d_min"] != 1,
            "critical-r": lambda: (doc["r_floor4"], doc["N"], doc["M"]) != (floor, N, M),
            "bounds": lambda: (doc["N"], doc["M"], doc["contradiction"]) != (N, M, True),
            "simulate": lambda: doc["colorable"] is not False or doc["inequality"]["holds"] is not True,
        }[cmd]()
    except ValueError:
        return "stdout is not JSON"
    except (KeyError, TypeError):
        return f"wrong {cmd} verdict: the JSON lacks its fields"
    return f"wrong {cmd} verdict" if wrong else None


# ---------------------------------------------------------------- Monte Carlo oracle
#
# One op's counters are checked for shape only.  The rates are checked once
# per run on the counters summed over every op on a set: op seeds are
# independent, so each sum is binomial over the total trials, and the check
# gets sqrt(ops) times more sensitive than checking op by op.

#: At most this many rate checks are made in one run ...
MAX_CHECKS = 1000
#: ... and a correct engine fails any of them in fewer than this share of runs.
RUN_FALSE_ALARM = 1e-6
#: Two-sided Chernoff bound: P(|z| > Z) <= 2 exp(-Z^2/2) = RUN_FALSE_ALARM / MAX_CHECKS.
Z_BOUND = math.sqrt(2 * math.log(2 * MAX_CHECKS / RUN_FALSE_ALARM))


def _binom(n: int, r: float) -> list[float]:
    return [math.comb(n, k) * r**k * (1 - r) ** (n - k) for k in range(n + 1)]


def context_error_rate(zeros: int, d: int, r: float) -> float:
    """P(a context whose base pattern has ``zeros`` zeros ends with a zero
    count other than one), i.e. 1 - P(z - Bin(z,r) + Bin(d-z,r) = 1)."""
    lost, gained = _binom(zeros, r), _binom(d - zeros, r)
    ok = sum(p * q for x, p in enumerate(lost) for y, q in enumerate(gained)
             if zeros - x + y == 1)
    return 1.0 - ok


def expected_rates(ks: Any, base: dict, r: float) -> tuple[list[float], float]:
    """Exact per-context error rates and the per-connection mismatch rate.

    The base is a per-vector assignment, so both slots of a connection agree
    before noise and disagree exactly when one of them flips: 2r(1-r).
    """
    d = ks.dimension
    eps = [context_error_rate(sum(1 for vid in c.vector_ids if base[vid] == 0), d, r)
           for c in ks.contexts]
    return eps, 2 * r * (1 - r)


def chernoff_z(count: int, trials: int, p: float) -> float:
    """Signed deviation sqrt(2 n KL(k/n || p)); Gaussian z in the large-n limit."""
    q = count / trials
    if p <= 0.0 or p >= 1.0:
        return 0.0 if q == p else math.inf
    kl = 0.0
    if q > 0:
        kl += q * math.log(q / p)
    if q < 1:
        kl += (1 - q) * math.log((1 - q) / (1 - p))
    return math.copysign(math.sqrt(2 * trials * max(kl, 0.0)), q - p)


class RateSums:
    """The counters of every ``simulate_model`` call on one set, summed."""

    def __init__(self, eps: list[float], delta: float, connections: int) -> None:
        self.eps, self.delta = eps, delta
        self.trials = 0
        self.context_errors = [0] * len(eps)
        self.mismatches = [0] * connections

    def add(self, summary: Any, trials: int) -> Optional[str]:
        """Check one call's counters for shape and add them to the sums.

        Every trial must violate at least one constraint of a KS set.
        """
        if (summary.trials, len(summary.context_error_counts),
                len(summary.connection_mismatch_counts)) != (
                trials, len(self.eps), len(self.mismatches)):
            return "counters do not match the trials, contexts and connections asked for"
        if summary.min_trial_defect < 1:
            return f"min_trial_defect {summary.min_trial_defect} < 1"
        self.trials += summary.trials
        self.context_errors = [a + b for a, b in zip(self.context_errors,
                                                     summary.context_error_counts)]
        self.mismatches = [a + b for a, b in zip(self.mismatches,
                                                 summary.connection_mismatch_counts)]
        return None

    def check(self) -> tuple[Optional[str], float, int]:
        """Every summed epsilon_hat and delta_hat within Z_BOUND of its exact
        rate.  Returns (failure, worst |z|, checks made)."""
        if not self.trials:
            return None, 0.0, 0
        zs = [chernoff_z(c, self.trials, p) for c, p in zip(self.context_errors, self.eps)]
        zs += [chernoff_z(c, self.trials, self.delta) for c in self.mismatches]
        worst = max(abs(z) for z in zs)
        if worst > Z_BOUND:
            return (f"rate off the exact oracle by |z| = {worst:.1f} > {Z_BOUND:.1f} "
                    f"over {self.trials} trials"), worst, len(zs)
        return None, worst, len(zs)
