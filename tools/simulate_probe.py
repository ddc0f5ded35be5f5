"""Print how ``simulate_model`` sizes, holds and times its chunks.

Usage, from anywhere:

    python3 tools/simulate_probe.py [--src DIR] [--repeats N]

One row per set and rate: the bundled catalog sets and Peres's 57-ray set
(``bench/peres57.py``), each at its kernel switch (the least rate that
``_dense_wins``) and at 0.03, 0.05, 0.1 and 0.5.  A row gives the kernel
chosen, the trials per chunk (``_chunk_rows``), the bytes of one dense
0/1 table (slots times the rows padded to whole 8-byte words; ``-`` where the
sparse kernel runs), the ``tracemalloc`` peak of one call, and the median
wall time of ``repeats`` calls.  A call runs 4,000,000 trial-slots, as the
benchmark's ``mc-rstar`` and ``mc-dense`` ops do, under a minimum-defect
base and seed 0.  The timed calls are interleaved, one of every row per
round, so a slow stretch of the host falls on all rows alike.

The package is imported from ``DIR`` (default: this checkout's ``src``), so
running the probe from one checkout against another's ``src`` compares two
versions of the rule with one script.  Running it again after a change to
``DENSE_TABLE`` or ``DENSE_FLIPS`` shows what the change did to each row.
"""
from __future__ import annotations

import argparse
import math
import runpy
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RATES = (0.03, 0.05, 0.1, 0.5)  # after each set's switch
TRIAL_SLOTS = 4_000_000


def switch_rate(sim, slots: int, n_conn: int) -> float:
    """The least rate at which ``_dense_wins``, up to float rounding."""
    rate = (slots + n_conn) / (slots * sim.DENSE_FLIPS)
    while not sim._dense_wins(rate, slots, n_conn):
        rate = math.nextafter(rate, 1)
    return rate


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding ksbound")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per row")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import ksbound as kb
    import ksbound.simulate as sim

    peres = runpy.run_path(str(ROOT / "bench" / "peres57.py"))
    sets = [kb.load_catalog(name) for name in kb.list_catalog()]
    sets.append(kb.parse_document(peres["peres57_document"]()).ks_set)

    rows = []  # (set, rate, kernel, rows, table bytes, model, trials)
    for ks in sets:
        slots = len(ks.contexts) * ks.dimension
        n_conn = kb.build_stats(ks).m_all_pairs
        base = kb.default_base(ks)
        for rate in (switch_rate(sim, slots, n_conn), *RATES):
            dense = sim._dense_wins(rate, slots, n_conn)
            chunk = sim._chunk_rows(rate, slots, n_conn)
            table = str(slots * -(-chunk // 8) * 8) if dense else "-"
            model = kb.TrialModel(ks, base, rate, 0)
            rows.append((ks.name, rate, "dense" if dense else "sparse", chunk, table,
                         model, TRIAL_SLOTS // slots))

    peaks = []
    for *_, model, trials in rows:
        kb.simulate_model(model, trials)  # warm: numpy's import and first pages
        tracemalloc.start()
        try:
            kb.simulate_model(model, trials)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    times: list[list[float]] = [[] for _ in rows]
    for _ in range(args.repeats):
        for (*_, model, trials), spent in zip(rows, times):
            start = time.perf_counter()
            kb.simulate_model(model, trials)
            spent.append(time.perf_counter() - start)

    width = max(len(row[0]) for row in rows)
    print(f"{'set':<{width}}  {'r':>8}  {'kernel':<6}  {'rows':>7}  {'table_B':>8}"
          f"  {'peak_MiB':>8}  {'median_ms':>9}")
    for (name, rate, kernel, chunk, table, *_), peak, spent in zip(rows, peaks, times):
        print(f"{name:<{width}}  {rate:>8.5f}  {kernel:<6}  {chunk:>7}  {table:>8}"
              f"  {peak:>8.2f}  {1e3 * statistics.median(spent):>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
