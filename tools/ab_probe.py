"""Time one layer of ksbound in two checkouts, paired, beside an A/A control.

Usage, from anywhere:

    python3 tools/ab_probe.py --a DIR [--b DIR] --layer LAYER [--passes N]

The probe loads the ``src/ksbound`` of checkout A (``--a``), of checkout B
(``--b``, default: this checkout) and a second copy of A (A'), in that
order, each under its own package name and reading its own catalog.  A
copy's place in the load order can change its speed by a few per cent, so
B and A' are both loaded after A, and A'/A shows what B/A reads when
nothing changed.  It does not show all of it: on ``critical``, B read up to
3 % faster than A and A' with all three trees the same.

The rows run one after another.  A row first runs once, untimed, in every
copy (numpy's import among it); then each of its N timed passes (default
30) runs it in the three copies, in a seeded shuffled order.  Row by row,
no row pays for the memory the one before it left: with passes over every
row, the first copy to run a sparse row at r* after a dense row at 0.5
read up to 1.5 times as long.

The inputs are the benchmark's: the catalog sets and Peres's 57-ray set
(``bench/peres57.py``), and one seeded ``bench/corpus.py`` pass of the
``ingest`` documents.  The layers, with one row per input:

* ``parse``: ``parse_document`` of each set's text;
* ``check``: ``KsSet(*ks)``, the set checker, on each parsed set;
* ``stats``, ``color``, ``defect`` and ``base``: ``build_stats``,
  ``find_coloring``, ``min_defect`` and ``default_base`` of each set;
* ``critical``: ``critical_rate`` of each set's counts, then ``table_report``;
* ``simulate``: ``simulate_model`` of ``bench/run.py``'s ``MC_SLOT_TRIALS``
  (4,000,000) trial-slots, as a benchmark ``mc`` op, under the set's
  default base and seed 0, at its r*, at its kernel switch (the least rate
  that ``_dense_wins``) and at 0.03, 0.05, 0.1 and 0.5, all reckoned by A's
  rules.  The row also gives, for A and then for B where it differs, the
  kernel, the trials per chunk (``_chunk_rows``), the bytes of one dense
  0/1 table (slots times the rows padded to whole 8-byte words; ``-`` where
  the sparse kernel runs) and the ``tracemalloc`` peak of one call;
* ``ingest``: the corpus pass through ``bench/checks.py``'s ``ingest_op``,
  the ``ingest`` workload's timed operation.

A row prints the medians of A and B (in ms, or for ``simulate`` in ns per
trial-slot); the median of the per-pass ratio B/A with its quartiles, and
the passes B won; and the same for A'/A.  A change counts on a row only
where the quartiles of B/A clear those of A'/A: ``call`` then reads
``faster`` or ``slower``, and ``-`` otherwise.
"""
from __future__ import annotations

import argparse
import importlib.util
import math
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import checks  # noqa: E402  (no bench module imports ksbound when it loads)
import corpus  # noqa: E402
import peres57  # noqa: E402
import run  # noqa: E402

PASS_SEED = 0  # the corpus pass: fixed, so every copy times the same documents
RATES = (0.03, 0.05, 0.1, 0.5)  # after each set's switch
SIZES = ("kernel", "rows", "table_B", "peak_MiB")  # the simulate layer's sizing columns
LAYERS = ("parse", "check", "stats", "color", "defect", "base", "critical", "simulate", "ingest")


def load(checkout: Path, name: str):
    """The ``src/ksbound`` package of ``checkout``, imported as ``name``."""
    pkg = checkout.resolve() / "src" / "ksbound"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    kb = sys.modules[name] = importlib.util.module_from_spec(spec)  # before its relative imports
    spec.loader.exec_module(kb)
    return kb


def switch_rate(sim, slots: int, n_conn: int) -> float:
    """The least rate at which ``_dense_wins``, up to float rounding."""
    rate = (slots + n_conn) / (slots * sim.DENSE_FLIPS)
    while not sim._dense_wins(rate, slots, n_conn):
        rate = math.nextafter(rate, 1)
    return rate


def sizing(kb, model, trials: int, slots: int, n_conn: int) -> tuple[str, ...]:
    """Kernel, trials per chunk, dense table bytes and traced MiB of one warm call."""
    dense = kb.simulate._dense_wins(model.flip_rate, slots, n_conn)
    chunk = kb.simulate._chunk_rows(model.flip_rate, slots, n_conn)
    kb.simulate_model(model, trials)  # numpy's import and first pages stay out of the peak
    tracemalloc.start()
    kb.simulate_model(model, trials)
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    table = str(slots * -(-chunk // 8) * 8) if dense else "-"
    return ("dense" if dense else "sparse", str(chunk), table, f"{peak:.2f}")


def layer_rows(kb, layer: str, ref) -> list:
    """(label, call, seconds per unit, sizing) of each row of ``layer`` in the
    copy ``kb``; ``ref`` is copy A, whose rules set the simulated rates."""
    texts = {name: kb.catalog_text(name) for name in run.CATALOG}  # the corpus follows this order
    texts["peres57"] = peres57.peres57_document()
    if layer == "ingest":
        docs = [text for _, text in corpus.corpus_pass(texts, random.Random(PASS_SEED))]
        one_pass = lambda: [checks.ingest_op(kb, text) for text in docs]  # noqa: E731
        return [(f"corpus pass ({len(docs)} docs)", one_pass, 1e-3, ())]
    rows = []
    for name, text in texts.items():
        ks = kb.parse_document(text).ks_set
        st, d = kb.build_stats(ks), ks.dimension
        calls = {"parse": lambda t=text: kb.parse_document(t), "check": lambda s=ks: kb.KsSet(*s),
                 "stats": lambda s=ks: kb.build_stats(s), "color": lambda s=ks: kb.find_coloring(s),
                 "defect": lambda s=ks: kb.min_defect(s), "base": lambda s=ks: kb.default_base(s),
                 "critical": lambda n=(st.N, st.M, d): kb.critical_rate(*n)}
        if layer != "simulate":
            rows.append((name, calls[layer], 1e-3, ()))
            continue
        slots = st.N * d
        base, trials = kb.default_base(ks), run.MC_SLOT_TRIALS // slots
        r_star = ref.critical_rate(st.N, st.M, d).r
        for r in (r_star, switch_rate(ref.simulate, slots, st.m_all_pairs), *RATES):
            model = kb.TrialModel(ks, base, r, 0)
            rows.append((f"{name} r={r:.5f}", lambda m=model, n=trials: kb.simulate_model(m, n),
                         1e-9 * trials * slots, sizing(kb, model, trials, slots, st.m_all_pairs)))
    return rows + [("table_report", kb.table_report, 1e-3, ())] * (layer == "critical")


def spread(a: list[float], b: list[float]) -> list[float]:
    """The quartiles of the per-pass ratio b/a."""
    return statistics.quantiles([y / x for x, y in zip(a, b)], n=4)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="checkout A, the reference")
    parser.add_argument("--b", type=Path, default=ROOT, help="checkout B (default: this one)")
    parser.add_argument("--layer", choices=LAYERS, required=True, help="the layer to time")
    parser.add_argument("--passes", type=int, default=30, help="timed passes, at least 2")
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2")
    copies = [load(args.a, "ksbound_a"), load(args.b, "ksbound_b"), load(args.a, "ksbound_a2")]
    table = [layer_rows(kb, args.layer, copies[0]) for kb in copies]
    rng = random.Random(0)
    times = [[[] for _ in table[0]] for _ in copies]
    for i in range(len(table[0])):  # row by row: no row pays for the memory of the one before
        for pass_ in range(args.passes + 1):  # pass 0 warms the row in every copy, untimed
            for c in rng.sample(range(3), 3):
                start = time.perf_counter()
                table[c][i][1]()
                if pass_:
                    times[c][i].append((time.perf_counter() - start) / table[c][i][2])

    unit, sized = ("ns/slot", SIZES) if args.layer == "simulate" else ("ms", ())
    width = max(len(row[0]) for row in table[0])
    print(f"{'row':<{width}}  {'A_' + unit:>10}  {'B_' + unit:>10}  {'B/A [q1-q3]':<19}  won   "
          "  A'/A [q1-q3]         call  " + "".join(f"  {head:>8}" for head in sized))
    for i, row in enumerate(table[0]):
        a, b, a2 = (times[c][i] for c in range(3))
        (b1, b2, b3), (c1, c2, c3) = spread(a, b), spread(a, a2)
        call = "slower" if b1 > c3 else "faster" if b3 < c1 else "-"  # B/A clear of A'/A
        print(f"{row[0]:<{width}}  {statistics.median(a):>10.3f}  {statistics.median(b):>10.3f}"
              f"  {b2:.3f} [{b1:.3f}-{b3:.3f}]  {sum(y < x for x, y in zip(a, b)):>2}/{len(a):<3}"
              f"  {c2:.3f} [{c1:.3f}-{c3:.3f}]  {call:<6}"
              + "".join(f"  {'/'.join(dict.fromkeys(p)):>8}" for p in zip(row[3], table[1][i][3])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
