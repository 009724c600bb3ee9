#!/usr/bin/env python3
"""Print every paper-vs-measured number in one run.

Not a pytest bench — a plain script that prints the tables the README
quotes (re-runnable by anyone questioning those numbers); it writes no
file.  The committed ``BENCH_*.json`` files each have their own producer
in this directory (``bench_parse_hotpath.py`` for the hot-path tiers):

    python benchmarks/collect_experiments.py
"""

from __future__ import annotations

import time

from repro.api import Language
from repro.baselines.earley import EarleyParser
from repro.bench.harness import run_figure_7_1
from repro.bench.hotpath import collect_hotpath_report, render_hotpath
from repro.bench.report import (
    capability_matrix,
    check_figure_7_1_shape,
    render_capability_matrix,
    render_figure_7_1,
)
from repro.bench.workloads import sdf_workload
from repro.core.metrics import table_fraction
from repro.lexing import scanner_from_sdf
from repro.sdf.corpus import CORPUS, corpus_tokens, sdf_definition


def main() -> None:
    workload = sdf_workload()
    tokens = corpus_tokens()

    print("=" * 72)
    print("E7 / Fig. 7.1 — the six-phase protocol (min of 3 repeats)")
    print("=" * 72)
    results = run_figure_7_1(workload, repeats=3)
    print(render_figure_7_1(results))
    problems = check_figure_7_1_shape(results)
    print("shape check:", "PASS" if not problems else problems)

    print()
    print("=" * 72)
    print("E5 / §5.2 — fraction of the full LR(0) table generated lazily")
    print("=" * 72)
    for name, stream in tokens.items():
        lang = Language(workload.fresh_grammar())
        assert lang.parse(stream).accepted
        fraction = table_fraction(lang.graph, lang.grammar)
        print(f"  {name:10s} {fraction * 100:5.1f}%   (paper: ~60% for SDF.sdf)")

    print()
    print("=" * 72)
    print("E1 / Fig. 2.1 — measured capability matrix")
    print("=" * 72)
    rows, baseline = capability_matrix(scale=400)
    print(render_capability_matrix(rows, baseline))
    print(f"  ('fast' baseline: deterministic LALR on ASF.sdf, "
          f"{baseline * 1000:.2f} ms)")
    for name, row in rows.items():
        if row.parse_seconds is not None:
            print(f"  {name:26s} parse {row.parse_seconds * 1000:8.2f} ms")

    print()
    print("=" * 72)
    print("E8 / §7 — Earley vs IPG (the comparison the authors skipped)")
    print("=" * 72)
    stream = tokens["SDF.sdf"]
    earley = EarleyParser(workload.fresh_grammar())
    lang = Language(workload.fresh_grammar())
    lang.recognize(stream)  # lazy generation happens here
    best_earley = min(
        _timed(lambda: earley.recognize(stream)) for _ in range(3)
    )
    best_ipg = min(_timed(lambda: lang.recognize(stream)) for _ in range(3))
    print(f"  Earley parse of SDF.sdf:    {best_earley * 1000:8.2f} ms")
    print(f"  IPG (warm) parse of SDF.sdf:{best_ipg * 1000:8.2f} ms")
    print(f"  ratio: {best_earley / best_ipg:.1f}x "
          f"(paper predicted 'much inferior parsing performance')")

    print()
    print("=" * 72)
    print("Hot path — tokens/sec per control-plane tier (lazy → compiled → table)")
    print("=" * 72)
    hotpath = collect_hotpath_report(repeats=5)
    for report in hotpath["workloads"].values():
        print(render_hotpath(report))
        print()
    print("  (the tracked BENCH_parse_hotpath.json comes from "
          "bench_parse_hotpath.py)")

    print()
    print("=" * 72)
    print("ISG — lazy scanner statistics on the corpus")
    print("=" * 72)
    scanner = scanner_from_sdf(sdf_definition())
    for name, text in CORPUS.items():
        scanner.scan(text)
    stats = scanner.stats()
    print(f"  after scanning all four files: {stats}")
    print(f"  lazy DFA fraction of full: "
          f"{scanner.dfa.fraction_of_full() * 100:.1f}%")


def _timed(thunk) -> float:
    start = time.perf_counter()
    assert thunk()
    return time.perf_counter() - start


if __name__ == "__main__":
    main()
