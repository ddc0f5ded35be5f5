"""Print the parse layer's times in process.

Usage, from anywhere:

    python3 tools/parse_probe.py [--src DIR] [--repeats N]

One row per document, the bundled catalog sets and Peres's 57-ray set
(``bench/peres57.py``): the median wall time of one ``parse_document`` call.
Then one row for a corpus pass: the median wall time of one seeded pass of
the benchmark's ``ingest`` documents (``bench/corpus.py``: every valid
document and its single-token mutants, most of them refused) through
``bench/checks.py``'s ``ingest_op``, the benchmark's timed operation.  The
timed calls are interleaved, one of every row per round, so a slow stretch of
the host falls on all rows alike; one untimed round runs first.

The package is imported from ``DIR`` (default: this checkout's ``src``) and
``bench/`` from this checkout, so running the probe against another
checkout's ``src`` compares two versions of the parser on one corpus.  An
end-to-end ``ingest`` run spreads too widely to show a change of a few per
cent; these medians can.
"""
from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PASS_SEED = 0  # the corpus pass: fixed, so two checkouts time the same documents


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding ksbound")
    parser.add_argument("--repeats", type=int, default=50, help="timed rounds")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    import ksbound as kb
    import checks
    import corpus
    import run

    texts = run.set_texts(kb)  # the catalog sets and peres57, as the benchmark reads them
    docs = [text for _, text in corpus.corpus_pass(texts, random.Random(PASS_SEED))]

    def one_pass() -> None:
        for text in docs:
            checks.ingest_op(kb, text)

    rows: list[tuple[str, Callable[[], object]]] = [
        (name, lambda text=text: kb.parse_document(text)) for name, text in texts.items()
    ]
    rows.append((f"corpus pass ({len(docs)} docs)", one_pass))
    times: list[list[float]] = [[] for _ in rows]
    for round_ in range(args.repeats + 1):
        for (_, call), spent in zip(rows, times):
            start = time.perf_counter()
            call()
            if round_:
                spent.append(time.perf_counter() - start)

    width = max(len(name) for name, _ in rows)
    print(f"{'row':<{width}}  {'median_ms':>9}")
    for (name, _), spent in zip(rows, times):
        print(f"{name:<{width}}  {1e3 * statistics.median(spent):>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
