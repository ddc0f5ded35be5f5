"""Record the benchmark baseline of the checkout in the current directory.

Usage: ``python3 bench/baseline.py [--seeds 1-10] [--sets 2] [--out bench/baseline.json]``

Makes ``--sets`` sets of runs, one after the other: each set runs
``bench/run.py`` on every workload of BENCHMARK.json once per seed with its
``run_seconds``.  Then one traced run per workload.  It writes every run's
figures, each set's medians and quartile spreads, the drift of each set's
medians from the first set's against the metric's bound, failure classes,
per-layer figures, per-set stage timings comparable to ROADMAP.md's
baseline table, the environment and the ``src/`` line count (an ungated
field) to one JSON file.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import run

#: ROADMAP.md baseline table (ms unless noted), for the comparison notes.
ROADMAP_MS = {
    "cabello18": {"parse": 32, "validate": 29, "find_coloring": 1, "min_defect": 6,
                  "simulate_1e6": 694},
    "kernaghan20": {"parse": 23, "validate": 23, "find_coloring": 1, "min_defect": 5,
                    "simulate_1e6": 1093},
    "kernaghan-peres36": {"parse": 249, "validate": 208, "find_coloring": 10,
                          "min_defect": 1320, "simulate_1e6": 2318},
}
ROADMAP_NODES = {"cabello18": 78, "kernaghan20": 101, "kernaghan-peres36": 561}
ROADMAP_CLI_MS = {"color kp36": 574, "defect kp36": 1807, "simulate kp36 1e5": 2273,
                  "table": 251}


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]  # raw figures, pace factor, oracle and failures
    result["failures"] = [line for line in lines if line.startswith("FAILED ")]
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med,
            "values": values}


def sensitivity_fit(sets: list[dict]) -> dict:
    """Slope of log raw time on log pace factor over a workload's runs, per
    figure: the check on run.SENSITIVITY."""
    xs: list[float] = []
    ys: dict[str, list[float]] = {"ops_per_s": [], "op_p50_ms": [], "op_tail_ms": [], "setup": []}
    for log in (log for each in sets for log in each["logs"]):
        raw = next(line for line in log if line.startswith("raw:"))
        ups = next(line for line in log if line.startswith("workload "))
        xs.append(math.log(float(re.search(r"pace factor ([\d.]+)", raw).group(1))))
        for name in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
            ys[name].append(math.log(float(re.search(name + r" ([\d.]+)", raw).group(1))))
        setups = re.search(r"set-ups ([\d., ]+) s", ups).group(1).split(", ")
        ys["setup"].append(math.log(statistics.median(float(v) for v in setups)))
    ys["ops_per_s"] = [-y for y in ys["ops_per_s"]]  # a rate: its time is the inverse
    return {name: statistics.linear_regression(xs, y).slope for name, y in ys.items()}


def median_ms(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def stage_timings(kb) -> dict:
    """Per-set stage times (median of 3, raw wall time), as in ROADMAP.md's baseline table."""
    texts = run.set_texts(kb)
    out = {}
    for name, text in texts.items():
        ks = kb.parse_document(text).ks_set
        st = kb.build_stats(ks)
        base = kb.default_base(ks)
        model = kb.TrialModel(ks_set=ks, base=base, flip_rate=0.0142, seed=7)
        trials = 200_000
        sim_ms = median_ms(lambda: kb.simulate_model(model, trials))
        out[name] = {
            "parse_ms": median_ms(lambda: kb.parse_document(text)),
            "validate_ms": median_ms(lambda: kb.validate_orthogonality(ks)),
            "find_coloring_ms": median_ms(lambda: kb.find_coloring(ks)),
            "find_coloring_nodes": kb.find_coloring(ks).nodes,
            "min_defect_ms": median_ms(lambda: kb.min_defect(ks)),
            "min_defect_nodes": kb.min_defect(ks).nodes,
            "simulate_ns_per_slot": sim_ms * 1e6 / (trials * st.N * ks.dimension),
            "simulate_1e6_ms_scaled": sim_ms * 1e6 / trials,
        }
    cli = {
        "color kp36": ["color", "catalog:kernaghan-peres36"],
        "defect kp36": ["defect", "catalog:kernaghan-peres36"],
        "simulate kp36 1e5": ["simulate", "catalog:kernaghan-peres36", "--r", "0.0043",
                              "--trials", "100000"],
        "table": ["table"],
    }
    out["cli_ms"] = {
        label: median_ms(lambda argv=argv: subprocess.run(
            [sys.executable, "-m", "ksbound", *argv], env=run.child_env(),
            capture_output=True, check=False))
        for label, argv in cli.items()}
    return out


def roadmap_notes(stages: dict) -> list[str]:
    notes = []
    keys = {"parse": "parse_ms", "validate": "validate_ms", "find_coloring": "find_coloring_ms",
            "min_defect": "min_defect_ms", "simulate_1e6": "simulate_1e6_ms_scaled"}
    for name, table in ROADMAP_MS.items():
        for stage, theirs in table.items():
            ours = stages[name][keys[stage]]
            if not 0.8 <= ours / theirs <= 1.25:
                notes.append(f"{name} {stage}: {ours:.1f} ms here, {theirs} ms in ROADMAP.md")
        if stages[name]["find_coloring_nodes"] != ROADMAP_NODES[name]:
            notes.append(f"{name} find_coloring nodes: {stages[name]['find_coloring_nodes']} "
                         f"here, {ROADMAP_NODES[name]} in ROADMAP.md")
    kp = stages["kernaghan-peres36"]["min_defect_nodes"]
    if kp != 3493:
        notes.append(f"kernaghan-peres36 min_defect nodes: {kp} here, 3493 in ROADMAP.md")
    for label, theirs in ROADMAP_CLI_MS.items():
        ours = stages["cli_ms"][label]
        if not 0.8 <= ours / theirs <= 1.25:
            notes.append(f"CLI {label}: {ours:.0f} ms here, {theirs} ms in ROADMAP.md")
    return notes


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        cpu = re.search(r"model name\s*:\s*(.*)", cpuinfo).group(1)
    except (OSError, AttributeError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cores": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--sets", type=int, default=2, help="sets of runs over the seeds")
    parser.add_argument("--out", default=str(run.HERE / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [entry["name"] for entry in spec["workloads"]]
    kb = run.load_ksbound()
    record = {
        "env": environment(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((run.SRC / "ksbound").glob("*.py"))),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds(args.seeds),
        "workloads": {w: {"sets": []} for w in names},
    }
    for k in range(args.sets):
        for w in names:
            results = [bench_run(w, s, spec["run_seconds"], 0) for s in record["seeds"]]
            metrics = {m: spread([r["metrics"][m]["value"] for r in results])
                       for m in results[0]["metrics"]}
            sets = record["workloads"][w]["sets"]
            first = sets[0]["end_to_end"] if sets else metrics
            for m, v in metrics.items():
                better = next(e["better"] for e in spec["end_to_end"] if e["name"] == m)
                change = v["median"] / first[m]["median"] - 1
                v["worse_than_first_set"] = change if better == "lower" else -change
                v["bound"] = bounds[m]
            sets.append({
                "end_to_end": metrics,
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "failures": [line for r in results for line in r["failures"]],
                "logs": [r["log"] for r in results],
            })
            print(f"set {k + 1} {w}: " + ", ".join(
                f"{m} {v['median']:.4g} (spread {v['iqr_over_median']:.3f}, "
                f"worse {v['worse_than_first_set']:+.3f})" for m, v in metrics.items()), flush=True)
    for w in names:
        entry = record["workloads"][w]
        failures = [line for each in entry["sets"] for line in each["failures"]]
        attempted = sum(each["attempted"] for each in entry["sets"])
        entry["fail_ratio"] = len(failures) / attempted
        entry["failure_classes"] = dict(Counter(checks.classify(line) for line in failures))
        entry["sensitivity"] = {"used": run.SENSITIVITY[w], "fit": sensitivity_fit(entry["sets"])}
        traced = bench_run(w, record["seeds"][0], spec["run_seconds"], 1)
        entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
        entry["traced_log"] = traced["log"]
    record["stages"] = stage_timings(kb)
    record["vs_roadmap"] = roadmap_notes(record["stages"])
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
