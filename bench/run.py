"""End-to-end and per-layer benchmark of ksbound.

Usage, from the root of a checkout (the benchmark imports ``src/ksbound``
from there and nothing else):

    python3 bench/run.py --workload <cli|ingest|mc-rstar|mc-dense>
                         --seed <n> --seconds <s> --trace <0|1>

Load is one closed-loop client: the next operation starts when the previous
one has ended, and at most one ``ksbound`` child process runs at a time.
The timed loop runs whole passes over the workload's operations (every op
kind once per pass).  A run makes a fixed number of passes, ``--seconds``
divided by the pass time measured at the baseline (PASS_SECONDS), and at
least one, so each run measures the same mix and sample count whatever the
seed, and a faster program finishes the same work sooner.  A ``cli`` pass
takes longer than ``--seconds`` at the baseline because it must hold
enough ``min_defect`` ops to set the tail (see below).

Workloads (inputs: the three catalog sets plus ``peres57``, generated and
checked by ``peres57.py``):

* ``cli``: one op is a fresh ``python -m ksbound <cmd> <set> --json`` process:
  validate, stats, color, defect, critical-r, bounds and a short seeded
  simulate on each set, ``table``, and seeded malformed files through
  validate.  Interpreter start, import and parsing set the median.  kp36
  ``defect`` and ``simulate`` spend about 1 s each in ``min_defect``; a pass
  runs each of them SLOW_REPEATS times, so that more than ten of them lie
  above the tail percentile and min_defect sets both the tail and most of
  ops_per_s.
* ``ingest``: one op is ``parse_document`` of one document, then
  ``validate_orthogonality`` and ``build_stats`` if it is accepted.  The
  corpus is the valid documents plus seeded single-token mutants
  (``corpus.py``), mostly rejected, so the reject path is timed beside the
  accept path.
* ``mc-rstar`` / ``mc-dense``: one op is ``simulate_model`` on one set at
  its own r* (about 1-2 flips per trial) or at r = 0.1 (4-12 flips), with
  a fixed trial x slot budget so every op costs about the same.  Counters
  are summed per set over the run and checked once against an exact oracle
  (``checks.py``), never bit for bit.

End-to-end metrics (``--trace 0``): setup_s (median of SETUP_REPEATS
set-ups, each a fresh ``import ksbound`` child process plus building the
inputs), ops_per_s, op_p50_ms, op_tail_ms (the highest percentile with at
least ten samples above it; percentile and sample count are printed),
peak_rss_mb (of the ``ksbound`` children for ``cli``, else of this
process).  Every op and set-up time is scaled to the baseline machine speed
by its ``pace.py`` factor, measured within a second of it and raised to the
workload's SENSITIVITY; the raw figures and the run's mean factor are
printed too.
fail_ratio is printed and equals failed / attempted.

Per-layer metrics (``--trace 1``): the loop runs untraced for half the
passes and traced for the other half; spans come from ``spans.py``.  Figures are
per op (``/op``) over the traced ops, 0 where a function does not run in a
workload's ops; times are scaled like the end-to-end ones.  Set-up is not
traced.

The last line of stdout is the JSON result; ``correct`` is false when any
failure is not a known ROADMAP defect (``checks.classify``): a wrong
verdict, an oracle miss, an invalid document accepted, or a new crash.
Every failure is printed with its classification and counts in ``failed``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Optional

import checks
import corpus
import peres57
from pace import Pace
from spans import Tracer, layer_metrics

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
CATALOG = ("cabello18", "kernaghan20", "kernaghan-peres36")
SETUP_REPEATS = 5
MC_SLOT_TRIALS = 4_000_000
MC_DENSE_RATE = 0.1
CLI_SIM_TRIALS = 2000
CLI_TIMEOUT_S = 120
#: kp36 ``defect`` and ``simulate`` run this often per cli pass: 12 slow ops, so the tail is one.
SLOW_SET, SLOW_REPEATS = "kernaghan-peres36", 6
#: How far each workload's times follow the pace factor: the slope of log
#: time on log factor over the runs of bench/baseline.json, rounded.  Times
#: are divided by factor ** SENSITIVITY (see pace.py).
SENSITIVITY = {"cli": 0.25, "ingest": 1.0, "mc-rstar": 0.5, "mc-dense": 0.5}
#: Pass duration at the baseline (bench/baseline.json); sizes a run's work.
PASS_SECONDS = {"cli": 26.0, "ingest": 13.0, "mc-rstar": 0.4, "mc-dense": 0.4}


class Refused(Exception):
    """The benchmark cannot run here; nothing is measured."""


def load_ksbound() -> Any:
    if not (SRC / "ksbound" / "__init__.py").is_file():
        raise Refused("no src/ksbound here; run from the root of a ksbound checkout")
    sys.path.insert(0, str(SRC))
    import ksbound
    import ksbound.cli  # noqa: F401  (the tracer wraps functions in every module)

    if Path(ksbound.__file__).resolve().parent != (SRC / "ksbound").resolve():
        raise Refused(f"imported ksbound from {ksbound.__file__}, not from {SRC}")
    return ksbound


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn_seconds(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=60)
    return time.perf_counter() - t0


def set_texts(kb: Any) -> dict[str, str]:
    """Document text of the four sets; refuses unless peres57 is as published."""
    texts = {name: kb.catalog_text(name) for name in CATALOG}
    texts["peres57"] = peres57.peres57_document()
    ks = kb.parse_document(texts["peres57"]).ks_set
    st = kb.build_stats(ks)
    n, N, M, _, floor = checks.SETS["peres57"]
    got = (st.n, st.N, st.m_all_pairs, ks.m_override, kb.validate_orthogonality(ks).ok,
           kb.find_coloring(ks).satisfiable, kb.critical_rate(st.N, st.M, 3).floor4)
    if got != (n, N, M, None, True, False, floor):
        raise Refused(f"generated peres57 is not the published set: {got}")
    return texts


# ---------------------------------------------------------------- workloads
#
# A workload's setup(kb, rng, passes) builds the inputs of ``passes`` passes
# and returns its state; its pass function (state, rng, tracer) returns the
# ops of the next pass.  An op is (label, run, check): run() is the timed
# work and check(result) returns None or a failure line.

Op = tuple[str, Callable[[], Any], Callable[[Any], Optional[str]]]


def ingest_setup(kb: Any, rng: random.Random, passes: int) -> dict:
    texts = set_texts(kb)
    return {"kb": kb, "passes": [corpus.corpus_pass(texts, rng) for _ in range(passes)],
            "next": 0}


def ingest_pass(state: dict, rng: random.Random, tracer: Optional[Tracer]) -> list[Op]:
    kb = state["kb"]
    docs = list(state["passes"][state["next"]])
    state["next"] += 1
    rng.shuffle(docs)  # spreads the slow documents over the run
    return [(label, lambda text=text: checks.ingest_op(kb, text),
             lambda res: checks.check_ingest(kb, *res)) for label, text in docs]


def mc_setup(rate: Optional[float]) -> Callable:
    def setup(kb: Any, rng: random.Random, passes: int) -> dict:
        plans, sums = [], {}
        for name, text in set_texts(kb).items():
            ks = kb.load_catalog(name) if name in CATALOG else kb.parse_document(text).ks_set
            st = kb.build_stats(ks)
            r = kb.critical_rate(st.N, st.M, ks.dimension).r if rate is None else rate
            base = kb.default_base(ks)
            eps, delta = checks.expected_rates(ks, base, r)
            trials = MC_SLOT_TRIALS // (st.N * ks.dimension)
            plans.append((name, ks, base, r, trials))
            sums[name] = checks.RateSums(eps, delta, st.m_all_pairs)
        return {"kb": kb, "plans": plans, "sums": sums}
    return setup


def mc_pass(state: dict, rng: random.Random, tracer: Optional[Tracer]) -> list[Op]:
    kb = state["kb"]
    ops = []
    for name, ks, base, r, trials in state["plans"]:
        model = kb.TrialModel(ks_set=ks, base=base, flip_rate=r, seed=rng.getrandbits(63))
        ops.append((name, lambda model=model, trials=trials: kb.simulate_model(model, trials),
                    lambda summary, name=name, trials=trials:
                    state["sums"][name].add(summary, trials)))
    return ops


def mc_finish(state: dict) -> list[tuple[str, str]]:
    """The run's rate check: the summed counters of each set against the oracle."""
    failures, worst, made = [], 0.0, 0
    for name, sums in state["sums"].items():
        failure, z, n = sums.check()
        worst, made = max(worst, z), made + n
        if failure is not None:
            failures.append((f"{name} (all ops)", failure))
    print(f"oracle: {made} checks on summed counters, worst |z| {worst:.2f} "
          f"(bound {checks.Z_BOUND:.2f})")
    return failures


def cli_setup(kb: Any, rng: random.Random, passes: int) -> dict:
    texts = set_texts(kb)
    work = Path(tempfile.mkdtemp(prefix=".bench_work_", dir=ROOT))
    sources = {name: f"catalog:{name}" for name in CATALOG}
    sources["peres57"] = str(work / "peres57.ksset")
    (work / "peres57.ksset").write_text(texts["peres57"], encoding="utf-8")
    malformed = []
    for i in range(passes):
        for name in sorted(texts):
            text = corpus.malformed(texts[name], rng)
            path = work / f"malformed-{i}-{name}.ksset"
            path.write_text(text, encoding="utf-8")
            malformed.append(str(path))
    return {"work": work, "sources": sources, "malformed": malformed, "next": 0,
            "spans": work / "spans.json"}


def cli_pass(state: dict, rng: random.Random, tracer: Optional[Tracer]) -> list[Op]:
    plan: list[tuple[str, Optional[str], list[str], int]] = []
    for name, src in state["sources"].items():
        floor = checks.SETS[name][4]
        repeats = SLOW_REPEATS if name == SLOW_SET else 1
        for cmd in ("validate", "stats", "color", "critical-r", "bounds"):
            plan.append((cmd, name, [cmd, src, "--json"], 2 if cmd == "color" else 0))
        for _ in range(repeats):
            plan.append(("defect", name, ["defect", src, "--json"], 0))
            plan.append(("simulate", name, ["simulate", src, "--r", str(floor), "--trials",
                                            str(CLI_SIM_TRIALS), "--seed",
                                            str(rng.getrandbits(63)), "--json"], 0))
    plan.append(("table", None, ["table", "--json"], 0))
    k = state["next"]
    state["next"] += 1
    per_pass = len(state["sources"])
    for path in state["malformed"][k * per_pass:(k + 1) * per_pass]:
        plan.append(("validate-malformed", None, ["validate", path, "--json"], 0))
    rng.shuffle(plan)

    ops = []
    for cmd, name, argv, code in plan:
        if tracer is None:
            args = [sys.executable, "-m", "ksbound", *argv]
        else:
            args = [sys.executable, str(HERE / "child.py"), str(state["spans"]), *argv]

        def run(args=args) -> Any:
            state["spans"].unlink(missing_ok=True)
            try:
                return subprocess.run(args, env=child_env(), cwd=ROOT, capture_output=True,
                                      text=True, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:  # the child is killed and reaped
                return exc

        def check(proc: Any, cmd=cmd, name=name, code=code) -> Optional[str]:
            if tracer is not None and state["spans"].exists():
                recorded = json.loads(state["spans"].read_text())
                tracer.absorb(recorded["spans"], recorded["counts"], tracer.op)
            if isinstance(proc, subprocess.TimeoutExpired):
                return f"timeout after {CLI_TIMEOUT_S} s"
            return checks.check_cli(cmd, name, code, proc.returncode, proc.stdout, proc.stderr)

        ops.append((f"{cmd} {name or Path(argv[1]).name}", run, check))
    return ops


def no_finish(state: dict) -> list[tuple[str, str]]:
    return []


#: name -> (setup, pass, finish); finish(state) makes the run's closing checks.
WORKLOADS = {"cli": (cli_setup, cli_pass, no_finish),
             "ingest": (ingest_setup, ingest_pass, no_finish),
             "mc-rstar": (mc_setup(None), mc_pass, mc_finish),
             "mc-dense": (mc_setup(MC_DENSE_RATE), mc_pass, mc_finish)}


# ---------------------------------------------------------------- measurement

def timed_loop(workload: str, state: dict, rng: random.Random, passes: int,
               tracer: Optional[Tracer], pace: Pace) -> dict:
    """Closed loop over ``passes`` whole passes: each op's (start, end) in
    perf_counter seconds, and ``elapsed`` without the pace slices."""
    spans: list[tuple[float, float]] = []
    failures: list[tuple[str, str]] = []
    paced = 0.0
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        for _ in range(passes):
            for label, run, check in WORKLOADS[workload][1](state, rng, tracer):
                if tracer is not None:
                    tracer.op = len(spans)
                a = time.perf_counter()
                result = run()
                spans.append((a, time.perf_counter()))
                failure = check(result)
                if failure is not None:
                    failures.append((label, failure))
                paced += pace.after(spans[-1][1] - a)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"elapsed": time.perf_counter() - t0 - paced, "spans": spans, "failures": failures}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples above it."""
    ordered = sorted(latencies)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def import_ms(samples: int = 5) -> tuple[float, float]:
    """Median interpreter start, and median extra cost of ``import ksbound``."""
    interp = statistics.median(spawn_seconds("pass") for _ in range(samples))
    full = statistics.median(spawn_seconds("import ksbound") for _ in range(samples))
    return interp * 1e3, (full - interp) * 1e3


def run(args: argparse.Namespace) -> dict:
    kb = load_ksbound()
    setup, _, finish = WORKLOADS[args.workload]
    passes = max(round(args.seconds / PASS_SECONDS[args.workload]), 1)
    # a traced run times its first half untraced, to measure the tracing overhead
    split = ((passes + 1) // 2, max(passes // 2, 1)) if args.trace else (passes, 0)
    pace = Pace()
    setups = []
    state: dict = {}
    try:
        for _ in range(SETUP_REPEATS):
            if state.get("work"):
                shutil.rmtree(state["work"], ignore_errors=True)
            rng = random.Random(args.seed)
            t0 = time.perf_counter()
            spawn_seconds("import ksbound")
            state = setup(kb, rng, sum(split))
            setups.append((t0, time.perf_counter()))
            pace.after(setups[-1][1] - t0)

        loops = [timed_loop(args.workload, state, rng, split[0], None, pace)]
        if args.trace:
            tracer = Tracer()
            loops.append(timed_loop(args.workload, state, rng, split[1], tracer, pace))
    finally:
        if state.get("work"):
            shutil.rmtree(state["work"], ignore_errors=True)

    def ms(span: tuple[float, float]) -> float:
        return (span[1] - span[0]) * 1e3

    def scaled_ms(span: tuple[float, float]) -> float:
        return ms(span) / pace.factor(*span) ** SENSITIVITY[args.workload]

    loop = loops[-1]  # the traced half of a traced run
    raw, lat = [ms(s) for s in loop["spans"]], [scaled_ms(s) for s in loop["spans"]]
    rates = [len(each["spans"]) / each["elapsed"] for each in loops]
    ops_per_s = rates[-1] * sum(raw) / sum(lat)  # elapsed scaled by the ops' own factors
    setup_s = statistics.median(scaled_ms(s) for s in setups) / 1e3
    failures = [f for each in loops for f in each["failures"]] + finish(state)
    attempted = sum(len(each["spans"]) for each in loops)
    tail_ms, pct, count = tail(lat)
    print(f"workload {args.workload}: {len(lat)} ops in {loop['elapsed']:.2f} s, set-ups "
          f"{', '.join(f'{ms(s) / 1e3:.3f}' for s in setups)} s (raw)")
    print(f"raw: ops_per_s {rates[-1]:.4g}, op_p50_ms {statistics.median(raw):.4g}, "
          f"op_tail_ms {tail(raw)[0]:.4g}; pace factor {pace.factor():.4f} over "
          f"{pace.slices} slices")
    print(f"op_tail_ms is p{pct:.1f} of {count} samples; fail_ratio {len(failures) / attempted:.4f}")
    for label, failure in failures:
        print(f"FAILED {label}: {failure} [{checks.classify(failure)}]")

    if args.trace:
        interp, imp = import_ms()
        factor = pace.factor() ** SENSITIVITY[args.workload]
        metrics = {"import.interp_ms": (interp / factor, "ms"),
                   "import.ksbound_ms": (imp / factor, "ms")}
        metrics.update(layer_metrics(tracer, len(lat), factor))
        metrics["trace.overhead_ratio"] = (rates[1] / rates[0], "ratio")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(lat), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb(args.workload), "MiB"),
        }
    correct = all(checks.is_known(f) for _, f in failures)
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except Refused as exc:
        print(f"bench: refused: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
