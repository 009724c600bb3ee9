"""Service throughput: N sessions × M interleaved edit/parse requests.

Two measurement modes:

**Dispatcher mode** (the PR 1 claim): one single-threaded
:class:`~repro.service.Dispatcher` serving the interleaved workload, with
a cache-disabled run alongside so the result cache's contribution stays
visible.

**Concurrent mode** (the PR 4 claim): the same workload split across
concurrent client threads driving a sharded
:class:`~repro.service.Scheduler` — the engine behind
``repro serve --tcp`` — at 1 worker and at N workers.  Parse work is
pure-Python CPU, so the scaling comes from **process** shards (each shard
is a ``repro serve`` child owning its sessions outright); the headline
number is the N-worker / 1-worker throughput ratio *measured in the same
run on the same machine*.

``--floor benchmarks/service_floor.json`` turns the run into a CI gate:
the same-run ratio must clear a floor (scaled down when the runner has
fewer cores than workers — a 1-core container cannot exhibit a 4-way
speedup, and pretending otherwise would just make the gate meaningless
noise), and absolute requests/sec floors with ~3× slack catch gross
regressions that machine-independent ratios cannot.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py

or standalone (writes ``BENCH_service_throughput.json`` at the repo
root)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
    PYTHONPATH=src python benchmarks/bench_service_throughput.py \\
        --floor benchmarks/service_floor.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

try:
    from repro.service import Dispatcher, Scheduler
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.service import Dispatcher, Scheduler

from repro.bench.workloads import service_requests
from repro.service.retry import call_with_retries, is_retryable

try:
    import pytest
except ImportError:  # standalone invocation needs no pytest
    pytest = None

SESSIONS = 20
REQUESTS_PER_SESSION = 30

#: Concurrent-mode workload (slightly smaller: it runs once per worker
#: count and the ratio, not the absolute size, is the headline).
CONCURRENT_SESSIONS = 16
CONCURRENT_REQUESTS = 25
CLIENTS = 8

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service_throughput.json"


def run_workload(requests, cache_capacity: int = 4096):
    """Serve ``requests`` on a fresh dispatcher; returns a result dict."""
    dispatcher = Dispatcher(cache_capacity=cache_capacity)
    started = time.perf_counter()
    errors = 0
    for request in requests:
        response = dispatcher.handle(request)
        errors += "error" in response
    elapsed = time.perf_counter() - started
    stats = dispatcher.workspace.cache.stats
    return {
        "requests": len(requests),
        "errors": errors,
        "seconds": elapsed,
        "requests_per_second": len(requests) / elapsed if elapsed else 0.0,
        "cache_hit_rate": stats.hit_rate,
        "cache_hits": stats.hits,
        "cache_lookups": stats.lookups,
    }


# -- the concurrent-clients mode -------------------------------------------


def _partition_by_client(
    requests: List[Dict[str, Any]], clients: int
) -> List[List[Dict[str, Any]]]:
    """Split the stream into per-client slices along session lines.

    Each session's requests stay with one client **in order** (a real
    editor session is one connection), so per-session request ordering is
    identical to the sequential run; sessions are dealt round-robin to
    clients.  Requests without a session (the trailing global ``metrics``)
    are dropped here — the driver issues its own after timing.
    """
    session_order: List[str] = []
    by_session: Dict[str, List[Dict[str, Any]]] = {}
    for request in requests:
        session = request.get("session")
        if session is None:
            continue
        if session not in by_session:
            session_order.append(session)
            by_session[session] = []
        by_session[session].append(request)
    slices: List[List[Dict[str, Any]]] = [[] for _ in range(clients)]
    for index, session in enumerate(session_order):
        slices[index % clients].extend(by_session[session])
    return [chunk for chunk in slices if chunk]


def run_concurrent(
    requests: List[Dict[str, Any]],
    workers: int,
    clients: int = CLIENTS,
    cache_capacity: int = 4096,
) -> Dict[str, Any]:
    """Concurrent clients driving a process-sharded scheduler.

    Every client thread is a synchronous caller (one request in flight at
    a time, like a blocking socket client); concurrency comes from having
    ``clients`` of them against ``workers`` shards.  Every worker count,
    1 included, runs process shards, so the ratio compares like with like.
    Returns a result dict.
    """
    slices = _partition_by_client(requests, clients)
    total = sum(len(chunk) for chunk in slices)
    scheduler = Scheduler(
        workers=workers,
        mode="process",
        max_depth=4096,
        cache_capacity=cache_capacity,
    )
    try:
        # Warm-up: make every shard (and child process) answer once so
        # startup cost stays out of the throughput window.
        warmup = scheduler.handle({"cmd": "info"})
        if "error" in warmup:
            raise RuntimeError(f"scheduler warm-up failed: {warmup['error']}")
        errors_by_client = [0] * len(slices)
        retried_by_client = [0] * len(slices)

        def drive(client_index: int, chunk: List[Dict[str, Any]]) -> None:
            for request in chunk:
                # Real clients retry transient conditions (overloaded,
                # shard-restarting) with jittered backoff; the bench
                # clients do the same so a momentary queue spike is
                # back-pressure, not a counted failure.
                response = scheduler.handle(request)
                if is_retryable(response):
                    retried_by_client[client_index] += 1
                    response = call_with_retries(scheduler.handle, request)
                errors_by_client[client_index] += "error" in response

        threads = [
            threading.Thread(target=drive, args=(index, chunk))
            for index, chunk in enumerate(slices)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        metrics = scheduler.handle({"cmd": "metrics"})
        shard_metrics = metrics.get("scheduler", {})
        cache = metrics.get("cache", {})
        return {
            "workers": workers,
            "mode": scheduler.mode,
            "clients": len(slices),
            "requests": total,
            "errors": sum(errors_by_client),
            "retried": sum(retried_by_client),
            "seconds": elapsed,
            "requests_per_second": total / elapsed if elapsed else 0.0,
            "cache_hit_rate": cache.get("hit_rate", 0.0),
            "overloaded": shard_metrics.get("overloaded", 0),
        }
    finally:
        scheduler.close()


# -- floors ----------------------------------------------------------------


def effective_ratio_floor(floor: Dict[str, Any], cpu_count: int) -> float:
    """The ratio this machine must clear.

    ``min_ratio`` is what a runner with at least ``workers`` cores owes
    (the CI gate); machines with fewer cores cannot produce that speedup,
    so the demand degrades to ``ratio_per_core × cores``, never below
    ``single_core_ratio`` — on a 1-core box the check only asserts that
    sharding is not catastrophically slower than one worker.
    """
    scaled = floor.get("ratio_per_core", 0.6) * cpu_count
    return min(
        floor.get("min_ratio", 1.5),
        max(floor.get("single_core_ratio", 0.5), scaled),
    )


def check_floor(
    floor_path: str,
    concurrent: Dict[int, Dict[str, Any]],
    ratio: Optional[float],
) -> List[str]:
    """Violation messages (empty = the gate passes)."""
    with open(floor_path) as handle:
        floor = json.load(handle)
    failures: List[str] = []
    cpu_count = os.cpu_count() or 1
    for result in concurrent.values():
        if result["errors"]:
            failures.append(
                f"{result['errors']} request(s) errored at "
                f"workers={result['workers']}"
            )
    needed_ratio = effective_ratio_floor(floor, cpu_count)
    if ratio is None:
        failures.append("no ratio measured (need 2 worker counts)")
    elif ratio < needed_ratio:
        failures.append(
            f"throughput ratio {ratio:.2f} below floor {needed_ratio:.2f} "
            f"(committed {floor.get('min_ratio')}, scaled for "
            f"{cpu_count} cores)"
        )
    for key, minimum in floor.get("min_requests_per_second", {}).items():
        workers = int(key)
        result = concurrent.get(workers)
        if result is None:
            failures.append(f"no measurement for workers={workers}")
        elif result["requests_per_second"] < minimum:
            failures.append(
                f"workers={workers}: {result['requests_per_second']:.1f} "
                f"req/s below absolute floor {minimum} "
                f"(3x-slack sanity net)"
            )
    return failures


# -- pytest-benchmark hooks ------------------------------------------------


if pytest is not None:

    @pytest.fixture(scope="module")
    def traffic():
        return service_requests(
            sessions=SESSIONS, requests_per_session=REQUESTS_PER_SESSION, seed=0
        )

    @pytest.mark.parametrize(
        "cache_capacity", [4096, 1], ids=["cached", "uncached"]
    )
    def test_service_throughput(benchmark, traffic, cache_capacity):
        result = benchmark.pedantic(
            run_workload, args=(traffic, cache_capacity), rounds=3, iterations=1
        )
        assert result["errors"] == 0
        benchmark.extra_info.update(
            {
                "sessions": SESSIONS,
                "requests": result["requests"],
                "requests_per_second": round(result["requests_per_second"], 1),
                "cache_hit_rate": round(result["cache_hit_rate"], 4),
            }
        )
        if cache_capacity > 1:
            # The pool repeats sentences, so a real cache must actually hit.
            assert result["cache_hit_rate"] > 0.2


# -- standalone ------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        default="1,4",
        metavar="N,M",
        help="comma-separated worker counts for the concurrent mode "
        "(default: 1,4; the last/first pair defines the ratio)",
    )
    parser.add_argument(
        "--clients", type=int, default=CLIENTS, metavar="N",
        help=f"concurrent client threads (default: {CLIENTS})",
    )
    parser.add_argument(
        "--skip-dispatcher", action="store_true",
        help="skip the single-threaded dispatcher baseline modes",
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
    worker_counts = sorted({int(n) for n in options.workers.split(",") if n})

    report: Dict[str, Any] = {
        "bench": "service_throughput",
        "cpu_count": os.cpu_count(),
        "dispatcher": {},
        "concurrent": {},
    }

    if not options.skip_dispatcher:
        requests = service_requests(
            sessions=SESSIONS, requests_per_session=REQUESTS_PER_SESSION, seed=0
        )
        print(
            f"dispatcher mode — {SESSIONS} sessions × "
            f"{REQUESTS_PER_SESSION} interleaved edit/parse requests "
            f"({len(requests)} requests total)"
        )
        for label, capacity in (("cached", 4096), ("uncached", 1)):
            result = run_workload(requests, cache_capacity=capacity)
            report["dispatcher"][label] = {
                key: round(value, 4) if isinstance(value, float) else value
                for key, value in result.items()
            }
            print(
                f"  {label:8s}: {result['requests_per_second']:>8.1f} req/s   "
                f"cache hit rate {result['cache_hit_rate']:.1%} "
                f"({result['cache_hits']}/{result['cache_lookups']})   "
                f"errors {result['errors']}"
            )

    concurrent_traffic = service_requests(
        sessions=CONCURRENT_SESSIONS,
        requests_per_session=CONCURRENT_REQUESTS,
        seed=1,
    )
    print(
        f"concurrent mode — {CONCURRENT_SESSIONS} sessions × "
        f"{CONCURRENT_REQUESTS} requests over {options.clients} client "
        f"threads, process shards ({os.cpu_count()} cores)"
    )
    by_workers: Dict[int, Dict[str, Any]] = {}
    for workers in worker_counts:
        result = run_concurrent(
            concurrent_traffic,
            workers=workers,
            clients=options.clients,
        )
        by_workers[workers] = result
        report["concurrent"][str(workers)] = {
            key: round(value, 4) if isinstance(value, float) else value
            for key, value in result.items()
        }
        print(
            f"  workers={workers}: {result['requests_per_second']:>8.1f} req/s"
            f"   errors {result['errors']}"
            f"   overloaded {result['overloaded']}"
        )

    ratio: Optional[float] = None
    if len(worker_counts) >= 2:
        low, high = worker_counts[0], worker_counts[-1]
        base = by_workers[low]["requests_per_second"]
        if base:
            ratio = by_workers[high]["requests_per_second"] / base
            report["ratio"] = {
                "workers": [low, high],
                "value": round(ratio, 4),
            }
            print(f"  ratio   : {high}-worker / {low}-worker = {ratio:.2f}x")

    status = 0
    if options.floor:
        failures = check_floor(options.floor, by_workers, ratio)
        report["floor"] = {
            "path": options.floor,
            "failures": failures,
        }
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
