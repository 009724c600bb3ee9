"""Corpus service bench: ingest rate, query latency, hash-cons dedup.

Drives the full corpus lifecycle in-process against a throwaway root —
register, bulk-ingest in chunks, batch-parse, then hammer the
Korp-style query endpoint — and reports the three numbers the corpus
subsystem exists to optimise:

* **ingest docs/s** — content-hashed bulk ingest throughput (including
  the crash-safe fsync-and-rename persistence), plus proof that
  re-ingesting a chunk is a counted no-op;
* **query p50/p99, cached vs uncached** — the same paginated ``match``
  page served through the read-through cache and with ``"cache": false``
  bypass, measured through the whole dispatcher path;
* **dedup ratio** — the hash-consed result store's sharing on a workload
  where every rejected document fails the same way (identical distilled
  diagnostics collapse to one stored payload).

``--floor benchmarks/corpus_floor.json`` turns the run into a CI gate.
The machine-independent guards are the dedup ratio (a deterministic
property of the workload) and the cached-vs-uncached p50 speedup
(same-run, same-machine); the absolute ingest floor has ~3x slack as a
gross sanity net.

Standalone (writes ``BENCH_corpus.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_corpus.py
    PYTHONPATH=src python benchmarks/bench_corpus.py \\
        --floor benchmarks/corpus_floor.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

try:
    from repro.service import Dispatcher
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.service import Dispatcher

#: Unambiguous on purpose — every accepted document has exactly one
#: tree, so parse time is linear in the corpus, not Catalan.
GRAMMAR = (
    "START ::= B\n"
    "B ::= true\n"
    "B ::= false\n"
    "B ::= B or true\n"
    "B ::= B or false"
)

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_corpus.json"

ACCEPTED_DOCS = 1000
REJECTED_DOCS = 250
INGEST_CHUNK = 250
QUERY_SAMPLES = 300
QUERY_PAGE_SIZE = 200


def percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def corpus_documents(accepted: int, rejected: int) -> List[Dict[str, str]]:
    documents = [
        {
            "name": f"bool-{value:05d}",
            "text": " or ".join(
                "true" if (value >> bit) & 1 else "false" for bit in range(10)
            ),
        }
        for value in range(accepted)
    ]
    # Identical up to the failure point: all rejections distill to one
    # diagnostics payload, which is what the dedup ratio measures.
    documents += [
        {"name": f"bad-{index:04d}", "text": f"true or maybe tail-{index}"}
        for index in range(rejected)
    ]
    return documents


def run_corpus(
    accepted: int = ACCEPTED_DOCS,
    rejected: int = REJECTED_DOCS,
    chunk: int = INGEST_CHUNK,
    query_samples: int = QUERY_SAMPLES,
) -> Dict[str, Any]:
    """One full lifecycle in a throwaway root; returns a result dict."""
    documents = corpus_documents(accepted, rejected)
    with tempfile.TemporaryDirectory(prefix="repro-corpus-bench-") as root:
        dispatcher = Dispatcher(corpus_root=root)
        try:
            created = dispatcher.handle(
                {"cmd": "corpus-create", "corpus": "bench", "grammar": GRAMMAR}
            )
            if "error" in created:
                raise RuntimeError(f"corpus-create failed: {created['error']}")

            # -- ingest ----------------------------------------------------
            started = time.perf_counter()
            added = 0
            for start in range(0, len(documents), chunk):
                outcome = dispatcher.handle(
                    {
                        "cmd": "corpus-ingest",
                        "corpus": "bench",
                        "documents": documents[start : start + chunk],
                    }
                )
                if "error" in outcome:
                    raise RuntimeError(f"ingest failed: {outcome['error']}")
                added += outcome["added"]
            ingest_seconds = time.perf_counter() - started
            re_ingest = dispatcher.handle(
                {
                    "cmd": "corpus-ingest",
                    "corpus": "bench",
                    "documents": documents[:chunk],
                }
            )

            # -- batch parse -----------------------------------------------
            started = time.perf_counter()
            parsed = dispatcher.handle(
                {"cmd": "corpus-parse", "corpus": "bench", "wait": True}
            )
            parse_seconds = time.perf_counter() - started
            job = parsed.get("job") or {}
            if job.get("state") != "done":
                raise RuntimeError(f"parse did not finish: {job}")
            status = dispatcher.handle(
                {"cmd": "corpus-status", "corpus": "bench"}
            )
            store = status["store"]

            # -- queries ---------------------------------------------------
            request = {
                "cmd": "corpus-query",
                "corpus": "bench",
                "kind": "match",
                "nonterminal": "B",
                "page": 0,
                "page_size": QUERY_PAGE_SIZE,
            }
            uncached: List[float] = []
            for _ in range(query_samples):
                begin = time.perf_counter()
                response = dispatcher.handle(dict(request, cache=False))
                uncached.append(time.perf_counter() - begin)
                if response.get("cache") is not False or "error" in response:
                    raise RuntimeError(f"uncached query went wrong: {response}")
            dispatcher.handle(dict(request))  # prime the read-through cache
            cached: List[float] = []
            for _ in range(query_samples):
                begin = time.perf_counter()
                response = dispatcher.handle(dict(request))
                cached.append(time.perf_counter() - begin)
                if response.get("cache") is not True or "error" in response:
                    raise RuntimeError(f"cached query went wrong: {response}")

            uncached_p50 = percentile(uncached, 0.50)
            cached_p50 = percentile(cached, 0.50)
            return {
                "documents": len(documents),
                "ingest": {
                    "added": added,
                    "seconds": round(ingest_seconds, 4),
                    "docs_per_second": round(
                        len(documents) / ingest_seconds, 1
                    ),
                    "re_ingest_added": re_ingest["added"],
                    "re_ingest_duplicates": re_ingest["duplicates"],
                },
                "parse": {
                    "seconds": round(parse_seconds, 4),
                    "docs_per_second": round(
                        len(documents) / parse_seconds, 1
                    ),
                    "accepted": job["accepted"],
                    "rejected": job["rejected"],
                },
                "store": {
                    "results": store["results"],
                    "puts": store["result_puts"],
                    "dedup_hits": store["dedup_hits"],
                    "dedup_ratio": round(store["dedup_ratio"], 4),
                },
                "query": {
                    "page_size": QUERY_PAGE_SIZE,
                    "samples": query_samples,
                    "uncached_p50_ms": round(uncached_p50 * 1000, 4),
                    "uncached_p99_ms": round(
                        percentile(uncached, 0.99) * 1000, 4
                    ),
                    "cached_p50_ms": round(cached_p50 * 1000, 4),
                    "cached_p99_ms": round(
                        percentile(cached, 0.99) * 1000, 4
                    ),
                    "cached_speedup_p50": round(
                        uncached_p50 / cached_p50 if cached_p50 else 0.0, 2
                    ),
                },
            }
        finally:
            dispatcher.close()


def check_floor(floor_path: str, result: Dict[str, Any]) -> List[str]:
    """Violation messages (empty = the gate passes)."""
    with open(floor_path) as handle:
        floor = json.load(handle)
    failures: List[str] = []
    if result["ingest"]["re_ingest_added"] != 0:
        failures.append(
            f"re-ingesting an already-ingested chunk added "
            f"{result['ingest']['re_ingest_added']} document(s) — ingest "
            f"is not idempotent"
        )
    minimum_ingest = floor.get("min_ingest_docs_per_second", 0.0)
    if result["ingest"]["docs_per_second"] < minimum_ingest:
        failures.append(
            f"ingest at {result['ingest']['docs_per_second']} docs/s below "
            f"absolute floor {minimum_ingest} (3x-slack sanity net)"
        )
    minimum_dedup = floor.get("min_dedup_ratio", 0.0)
    if result["store"]["dedup_ratio"] < minimum_dedup:
        failures.append(
            f"dedup ratio {result['store']['dedup_ratio']} below floor "
            f"{minimum_dedup} — hash-consing stopped sharing payloads"
        )
    minimum_speedup = floor.get("min_cached_speedup_p50", 0.0)
    if result["query"]["cached_speedup_p50"] < minimum_speedup:
        failures.append(
            f"cached query p50 only {result['query']['cached_speedup_p50']}x "
            f"faster than uncached, below floor {minimum_speedup}"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--accepted", type=int, default=ACCEPTED_DOCS, metavar="N",
        help=f"accepted documents to generate (default: {ACCEPTED_DOCS})",
    )
    parser.add_argument(
        "--rejected", type=int, default=REJECTED_DOCS, metavar="N",
        help=f"rejected documents to generate (default: {REJECTED_DOCS})",
    )
    parser.add_argument(
        "--query-samples", type=int, default=QUERY_SAMPLES, metavar="N",
        help=f"query latency samples per variant (default: {QUERY_SAMPLES})",
    )
    parser.add_argument(
        "--floor", metavar="PATH",
        help="enforce the committed floor file; non-zero exit on violation",
    )
    parser.add_argument(
        "--no-output", action="store_true",
        help=f"do not write {OUTPUT_PATH.name}",
    )
    options = parser.parse_args(argv)

    print(
        f"corpus bench — {options.accepted}+{options.rejected} documents, "
        f"{options.query_samples} query samples per variant "
        f"({os.cpu_count()} cores)"
    )
    result = run_corpus(
        accepted=options.accepted,
        rejected=options.rejected,
        query_samples=options.query_samples,
    )
    report: Dict[str, Any] = {
        "bench": "corpus",
        "cpu_count": os.cpu_count(),
        "corpus": result,
    }
    print(
        f"  ingest {result['ingest']['docs_per_second']} docs/s "
        f"(re-ingest: {result['ingest']['re_ingest_duplicates']} duplicates, "
        f"{result['ingest']['re_ingest_added']} added)   parse "
        f"{result['parse']['docs_per_second']} docs/s"
    )
    print(
        f"  store: {result['store']['results']} results for "
        f"{result['documents']} documents "
        f"(dedup ratio {result['store']['dedup_ratio']})"
    )
    print(
        f"  query p50/p99: uncached {result['query']['uncached_p50_ms']}/"
        f"{result['query']['uncached_p99_ms']}ms, cached "
        f"{result['query']['cached_p50_ms']}/"
        f"{result['query']['cached_p99_ms']}ms "
        f"({result['query']['cached_speedup_p50']}x at p50)"
    )

    status = 0
    if options.floor:
        failures = check_floor(options.floor, result)
        report["floor"] = {"path": options.floor, "failures": failures}
        if failures:
            status = 1
            for failure in failures:
                print(f"FLOOR VIOLATION: {failure}", file=sys.stderr)
        else:
            print(f"floor check passed ({options.floor})")

    if not options.no_output:
        OUTPUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {OUTPUT_PATH}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
