"""End-to-end request benchmark with a per-layer traced breakdown.

Run from the repository root::

    python3 e2ebench/run.py --workload booleans-tcp --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same seeded traffic untraced and then traced, and
reports the per-layer metrics of ``BENCHMARK.json``.  A human-readable
report goes to stderr; the last line of stdout is the JSON result.  The
exit code is 1 when any answer was wrong, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
from typing import Any, Callable, Dict, List, Tuple

from stats import latency_summary, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for server files and corpus roots, inside the checkout.
TMP = os.path.join(ROOT, ".e2ebench_tmp")

WORKLOADS = ("booleans-tcp", "sdf-editor", "corpus-sdf")

Metrics = Dict[str, Tuple[float, str]]


def end_to_end(outcome: Any, peak_rss: float) -> Metrics:
    """The metrics every workload reports with tracing off."""
    latency = latency_summary(outcome.latencies)
    return {
        "setup_s": (statistics.median(outcome.setup), "s"),
        "throughput_rps": (len(outcome.latencies) / outcome.wall, "req/s"),
        "latency_p50_ms": (latency["p50_ms"], "ms"),
        "latency_p99_ms": (latency["p99_ms"], "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def workload_specific(outcomes: List[Any]) -> Metrics:
    """The workload-specific end-to-end figures, from the first
    (untraced, or TCP) phase; 0 where a workload has no such request.
    They ride with the per-layer metrics because every metric of the
    result line must exist on every workload."""
    first = outcomes[0]
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)

    def ms(name: str, q: float = 0.5) -> Tuple[float, str]:
        return (percentile(first.classes.get(name, []), q) * 1e3, "ms")

    def docs_per_s(count: str, timed: str) -> Tuple[float, str]:
        seconds = sum(first.classes.get(timed, ()))
        return (first.values.get(count, 0) / seconds if seconds else 0.0,
                "docs/s")

    return {
        "edit_parse_p50_ms": ms("edit_parse"),
        "modify_p50_ms": ms("modify"),
        "post_modify_parse_p50_ms": ms("post_modify"),
        "ingest_docs_per_s": docs_per_s("ingested_docs", "ingest"),
        "parse_docs_per_s": docs_per_s("parsed_docs", "corpus_parse"),
        "query_p50_ms": ms("query"),
        "query_p99_ms": ms("query", 0.99),
        "failed_frac": (failed / attempted if attempted else 0.0, "fraction"),
    }


def layer_metrics(tracer: Any, traced: Any, untraced: Any) -> Metrics:
    """Per-layer metrics from a traced phase and its untraced twin."""
    wall = traced.wall
    requests = max(1, traced.attempted)
    layer = tracer.layer

    def share(*names: str) -> Tuple[float, str]:
        return (sum(layer(n).self_time for n in names) / wall, "fraction")

    def per_request(name: str, key: str) -> Tuple[float, str]:
        return (layer(name).counts.get(key, 0) / requests, "1/req")

    def rate(name: str, key: str) -> Tuple[float, str]:
        self_time = layer(name).self_time
        return (layer(name).counts.get(key, 0) / self_time if self_time else 0.0,
                "tok/s")

    reparse = layer("reparse")
    gets = layer("cache.get")
    modify = layer("modify")
    lookups = traced.values.get("cache_lookups", 0)
    expansions = traced.values.get("expansions", 0)
    queries = len(traced.classes.get("query", ()))
    metrics: Metrics = {
        "dispatch.share": share("dispatch"),
        "workspace.share": share("workspace"),
        "language.share": share("language"),
        "cache.share": share("cache.get", "cache.put"),
        "cache.hit_rate": (
            traced.values.get("cache_hits", 0) / lookups if lookups else 0.0,
            "fraction"),
        "cache.lookups": (lookups / requests, "1/req"),
        "cache.get_p50_us": (gets.p_us(0.5), "us"),
        "checkpoints.evictions": (
            traced.values.get("checkpoint_evictions", 0) / requests, "1/req"),
        "lex.share": share("lex"),
        "lex.tokens_per_s": rate("lex", "tokens"),
        "generation.modify_share": share("modify"),
        "generation.modify_p50_us": (modify.p_us(0.5), "us"),
        "generation.expansions": (expansions / requests, "1/req"),
        "generation.expansions_per_modify": (
            expansions / modify.calls if modify.calls else 0.0, "count"),
        "engine.share": share("engine"),
        "engine.p50_us": (layer("engine").p_us(0.5), "us"),
        "engine.tokens_per_s": rate("engine", "tokens"),
        "engine.shifts": per_request("engine", "shifts"),
        "engine.reduces": per_request("engine", "reduces"),
        "engine.forks": per_request("engine", "forks"),
        "engine.sweeps": per_request("engine", "sweeps"),
        "reparse.share": share("reparse"),
        "reparse.p50_us": (reparse.p_us(0.5), "us"),
        "reparse.reused_frac": (
            reparse.counts.get("reused_prefix", 0)
            / reparse.counts["total_tokens"]
            if reparse.counts.get("total_tokens") else 0.0, "fraction"),
        "reparse.converged_frac": (
            reparse.counts.get("converged", 0) / reparse.calls
            if reparse.calls else 0.0, "fraction"),
        "reparse.parsed_tokens": (
            reparse.counts.get("parsed_tokens", 0) / reparse.calls
            if reparse.calls else 0.0, "tok/call"),
        "forest.count_share": share("forest.count"),
        "render.share": share("render"),
        "render.p99_us": (layer("render").p_us(0.99), "us"),
        "render.trees": per_request("render", "trees"),
        "render.chars": per_request("render", "chars"),
        "payload.share": share("payload"),
        "json.encode_share": share("json.encode"),
        "corpus.ingest_share": share("corpus.ingest"),
        "corpus.parse_share": share("corpus.parse"),
        "corpus.store.dedup_ratio": (
            traced.values.get("dedup_ratio", 0.0), "fraction"),
        "corpus.journal.entries": (
            traced.values.get("journal_entries", 0), "count"),
        "corpus.query.cache_hit_rate": (
            traced.values.get("query_cache_hits", 0) / queries
            if queries else 0.0, "fraction"),
        "corpus.query.p50_us": (layer("corpus.query").p_us(0.5), "us"),
        "residual.share": ((wall - tracer.covered) / wall, "fraction"),
        "trace.overhead_frac": (
            (traced.wall / requests)
            / (untraced.wall / max(1, untraced.attempted)) - 1.0,
            "fraction"),
    }
    return metrics


def _tcp_metrics(tcp: Any) -> Metrics:
    outside = tcp.classes.get("outside", [])
    waits = tcp.classes.get("queue_wait", [])
    return {
        "net.outside_p50_ms": (percentile(outside, 0.5) * 1e3, "ms"),
        "net.outside_p99_ms": (percentile(outside, 0.99) * 1e3, "ms"),
        "server.time_p50_ms": (percentile(tcp.classes.get("server", []), 0.5) * 1e3, "ms"),
        "scheduler.queue_wait_p50_ms": (percentile(waits, 0.5) * 1e3, "ms"),
        "scheduler.queue_wait_p99_ms": (percentile(waits, 0.99) * 1e3, "ms"),
        "scheduler.retried": (tcp.values.get("retried", 0), "count"),
        "scheduler.overloaded": (tcp.values.get("overloaded", 0), "count"),
        "scheduler.coalesced": (tcp.values.get("coalesced", 0), "count"),
    }


# -- the three workloads ----------------------------------------------------

def booleans_tcp(oracle, run_dir: str, seed: int, seconds: float,
                 trace: bool) -> Tuple[Metrics, List[Any], Any]:
    from layers import LayerTracer
    from repro.service import Dispatcher
    from workloads import (Outcome, booleans_replay, count_workspace,
                           run_booleans_tcp, verify_booleans)

    if not trace:
        outcome = run_booleans_tcp(oracle, ROOT, run_dir, seed, seconds, False)
        return (end_to_end(outcome, outcome.values["peak_rss_mb"]),
                [outcome], None)
    tcp = run_booleans_tcp(oracle, ROOT, run_dir, seed, seconds / 3, True,
                           setups=1, min_samples=0)
    untraced = Outcome()
    dispatcher = Dispatcher()
    verify_booleans(booleans_replay(dispatcher, seed, None, seconds / 3,
                                    untraced), oracle, untraced)
    traced = Outcome()
    dispatcher = Dispatcher()
    tracer = LayerTracer()
    answers = booleans_replay(dispatcher, seed, untraced.attempted, 0,
                              traced, window=tracer)
    verify_booleans(answers, oracle, traced)
    count_workspace(dispatcher, traced)
    metrics = workload_specific([tcp, untraced, traced])
    metrics.update(_tcp_metrics(tcp))
    metrics.update(layer_metrics(tracer, traced, untraced))
    return metrics, [tcp, untraced, traced], (tracer, traced)


def sdf_editor(oracle, run_dir: str, seed: int, seconds: float,
               trace: bool) -> Tuple[Metrics, List[Any], Any]:
    from layers import LayerTracer
    from workloads import Outcome, count_workspace, run_sdf_editor

    if not trace:
        outcome, dispatcher = run_sdf_editor(oracle, seed, seconds,
                                             end_to_end=True)
        dispatcher.close()
        return (end_to_end(outcome, outcome.values["peak_rss_mb"]),
                [outcome], None)
    untraced, dispatcher = run_sdf_editor(oracle, seed, seconds / 2,
                                          min_samples=0)
    dispatcher.close()
    tracer = LayerTracer()
    traced, dispatcher = run_sdf_editor(
        oracle, seed, 0, items=untraced.values["items"],
        window=tracer,
    )
    count_workspace(dispatcher, traced)
    dispatcher.close()
    metrics = workload_specific([untraced, traced])
    metrics.update(_tcp_metrics(Outcome()))  # no transport: zeros
    metrics.update(layer_metrics(tracer, traced, untraced))
    return metrics, [untraced, traced], (tracer, traced)


def corpus_sdf(oracle, run_dir: str, seed: int, seconds: float,
               trace: bool) -> Tuple[Metrics, List[Any], Any]:
    from layers import LayerTracer
    from workloads import Outcome, run_corpus_sdf

    if not trace:
        outcome = run_corpus_sdf(oracle, run_dir, seed, seconds,
                                 end_to_end=True)
        return (end_to_end(outcome, outcome.values["peak_rss_mb"]),
                [outcome], None)
    untraced = run_corpus_sdf(oracle, run_dir, seed, seconds / 2,
                              min_samples=0)
    tracer = LayerTracer()
    traced = run_corpus_sdf(oracle, run_dir, seed, 0,
                            passes=untraced.values["passes"], window=tracer)
    metrics = workload_specific([untraced, traced])
    metrics.update(_tcp_metrics(Outcome()))  # no transport: zeros
    metrics.update(layer_metrics(tracer, traced, untraced))
    return metrics, [untraced, traced], (tracer, traced)


RUNNERS: Dict[str, Callable[..., Tuple[Metrics, List[Any], Any]]] = {
    "booleans-tcp": booleans_tcp,
    "sdf-editor": sdf_editor,
    "corpus-sdf": corpus_sdf,
}


# -- reporting --------------------------------------------------------------


def report(workload: str, metrics: Metrics, outcomes: List[Any],
           layered: Any) -> None:
    out = sys.stderr
    print(f"== {workload}", file=out)
    for outcome in outcomes:
        print(f"   phase: {outcome.attempted} requests in {outcome.wall:.2f} s"
              f", {outcome.failed} failed", file=out)
        for problem in outcome.problems:
            print(f"   ! {problem}", file=out)
    if layered is None:
        outcome = outcomes[0]
        specific = workload_specific(outcomes)
        shown = dict(metrics)
        shown.update({k: v for k, v in specific.items()
                      if v[0] or k == "failed_frac"})
        for name, (value, unit) in shown.items():
            print(f"   {name:<28} {value:>12.4f} {unit}", file=out)
        print(f"   samples: {len(outcome.latencies)} latencies, "
              f"{len(outcome.setup)} set-ups", file=out)
        if outcome.host is not None:
            print(f"   host: median slowdown "
                  f"{statistics.median(outcome.host.factors):.3f} against "
                  f"the reference loop", file=out)
        return
    tracer, traced = layered
    rows = tracer.table(traced.wall)
    total = sum(row["share"] for row in rows)
    print(f"   {'layer':<22} {'share':>7} {'calls':>8} {'p50 us':>9}  counts",
          file=out)
    for row in rows:
        counts = ", ".join(f"{k}={v:g}" for k, v in sorted(row["counts"].items()))
        print(f"   {row['layer']:<22} {row['share']:>7.1%} {row['calls']:>8} "
              f"{row['p50_us']:>9.1f}  {counts}", file=out)
    print(f"   layers + residual = {total:.4f} of wall "
          f"({traced.wall:.3f} s; tolerance 0.01)", file=out)
    for name, (value, unit) in metrics.items():
        if "share" not in name:
            print(f"   {name:<32} {value:>12.4f} {unit}", file=out)


def _fresh_tmp() -> str:
    """A run directory under TMP, after reaping what crashed runs left."""
    from server import reap_stale

    if os.path.isdir(TMP):
        for entry in os.listdir(TMP):
            stale = os.path.join(TMP, entry)
            reap_stale(stale)
            shutil.rmtree(stale, ignore_errors=True)
    os.makedirs(TMP, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=TMP)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program is not in this checkout ({SRC} is "
              f"missing); run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A SIGTERM (a harness timeout) unwinds through the finally blocks, so the
    # server group is stopped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from oracle import Oracle

    run_dir = _fresh_tmp()
    try:
        metrics, outcomes, layered = RUNNERS[args.workload](
            Oracle(), run_dir, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    report(args.workload, metrics, outcomes, layered)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
