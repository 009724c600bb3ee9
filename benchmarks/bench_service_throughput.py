"""Service throughput: N sessions × M interleaved edit/parse requests.

Two measurement modes:

**Dispatcher mode**: one single-threaded
:class:`~repro.service.Dispatcher` serving the interleaved workload, with
a cache-disabled run alongside so the result cache's contribution stays
visible, and a second cache-disabled run whose parses and recognitions
name ``"engine": "gss"`` and ``"max_trees": 1`` (:func:`pinned`).  The
default uncached run over the pinned one, measured in the same run, is
the ``default_vs_pinned`` ratio: a request that names nothing must cost
about what the fastest explicit request costs.

**Concurrent mode** (the PR 4 claim): the same workload split across
concurrent client threads driving a sharded
:class:`~repro.service.Scheduler` — the engine behind
``repro serve --tcp`` — at 1 worker and at N workers.  Parse work is
pure-Python CPU, so the scaling comes from **process** shards (each shard
is a ``repro serve`` child owning its sessions outright); the headline
number is the N-worker / 1-worker throughput ratio *measured in the same
run on the same machine*.

**TCP mode** (the relay layer): the p50 round trip of one cached
``recognize`` over TCP, through a ``repro serve --tcp`` subprocess with 2
process shards and one with 1 inline shard, alternating request by
request in the same run.  It reports both, their ratio
(``process_vs_inline``), and the relay overhead of each: round trip minus
the server's own ``time``.  With the relay on the server's event loop a
process shard costs about what the inline shard costs; a thread hop per
request between socket and child pipe shows up as a ratio near 1.5.

``--floor benchmarks/service_floor.json`` turns the run into a CI gate:
the same-run ratios must clear their floors (the sharding ratio scaled
down when the runner has fewer cores than workers — a 1-core container
cannot exhibit a 4-way speedup, and pretending otherwise would just make
the gate meaningless noise), and absolute requests/sec floors with ~3×
slack catch gross regressions that machine-independent ratios cannot.

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
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

try:
    from repro.service import Dispatcher, Scheduler
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.service import Dispatcher, Scheduler

from repro.bench.serve import ServeProcess
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

#: TCP mode: timed round trips per server, after warm-up ones.
TCP_ROUNDS = 1500
TCP_WARMUP = 200

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


def pinned(requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """``requests`` with every parse and recognition pinned to ``gss``
    and every parse to one tree: the cheapest explicit spelling."""
    pinned_requests = []
    for request in requests:
        if request.get("cmd") == "parse":
            request = {**request, "engine": "gss", "max_trees": 1}
        elif request.get("cmd") == "recognize":
            request = {**request, "engine": "gss"}
        pinned_requests.append(request)
    return pinned_requests


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


# -- the TCP relay mode ----------------------------------------------------


class _TcpServer:
    """A ``repro serve --tcp`` subprocess and one blocking connection."""

    def __init__(self, workers: int) -> None:
        self.server = ServeProcess(workers, stderr=subprocess.DEVNULL)
        self.sock = self.server.connect(timeout=60)
        self.stream = self.sock.makefile("rwb")

    def call(self, request: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        """One round trip: ``(response, seconds)``."""
        line = (json.dumps(request) + "\n").encode()
        started = time.perf_counter()
        self.stream.write(line)
        self.stream.flush()
        answer = self.stream.readline()
        return json.loads(answer), time.perf_counter() - started

    def close(self) -> None:
        self.stream.close()
        self.sock.close()
        self.server.close()


def run_tcp(rounds: int = TCP_ROUNDS) -> Dict[str, Any]:
    """p50 round trip of a cached ``recognize``: 2 process shards vs 1
    inline shard, request by request in the same run."""
    grammar = "START ::= B\nB ::= true\nB ::= false\nB ::= B or B"
    request = {"cmd": "recognize", "session": "rtt",
               "tokens": " or ".join(["true", "false"] * 3)}
    samples: Dict[str, List[Tuple[float, float]]] = {"process": [], "inline": []}
    servers: Dict[str, _TcpServer] = {}
    try:
        for label, workers in (("process", 2), ("inline", 1)):
            servers[label] = _TcpServer(workers)
            opened, _ = servers[label].call(
                {"cmd": "open", "session": "rtt", "grammar": grammar}
            )
            if "error" in opened:
                raise RuntimeError(f"open failed: {opened['error']}")
        for index in range(TCP_WARMUP + rounds):
            for label, server in servers.items():
                response, seconds = server.call(request)
                if "error" in response or response.get("cache") is not (index > 0):
                    raise RuntimeError(f"{label}: unexpected answer {response}")
                if index >= TCP_WARMUP:
                    samples[label].append((seconds, response["time"]))
    finally:
        for server in servers.values():
            server.close()
    report: Dict[str, Any] = {"rounds": rounds, "request": "cached recognize"}
    for label, pairs in samples.items():
        report[label] = {
            "rtt_p50_ms": statistics.median(rtt for rtt, _ in pairs) * 1e3,
            "server_p50_ms": statistics.median(t for _, t in pairs) * 1e3,
            "relay_p50_ms": statistics.median(rtt - t for rtt, t in pairs) * 1e3,
        }
    report["process_vs_inline"] = (
        report["process"]["rtt_p50_ms"] / report["inline"]["rtt_p50_ms"]
    )
    return report


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
    default_vs_pinned: Optional[float] = None,
    tcp: Optional[Dict[str, Any]] = None,
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
    minimum_vs_pinned = floor.get("min_default_vs_pinned")
    if minimum_vs_pinned is not None:
        if default_vs_pinned is None:
            failures.append(
                "no default-vs-pinned ratio measured (dispatcher mode skipped)"
            )
        elif default_vs_pinned < minimum_vs_pinned:
            failures.append(
                f"default uncached run is {default_vs_pinned:.2f}x the "
                f"gss + max_trees 1 run, below floor {minimum_vs_pinned}"
            )
    maximum_rtt_ratio = floor.get("max_process_vs_inline_rtt")
    if maximum_rtt_ratio is not None:
        if tcp is None:
            failures.append("no TCP round-trip ratio measured")
        elif tcp["process_vs_inline"] > maximum_rtt_ratio:
            failures.append(
                f"a cached round trip through 2 process shards takes "
                f"{tcp['process_vs_inline']:.2f}x the inline shard's, above "
                f"ceiling {maximum_rtt_ratio}"
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

    default_vs_pinned: Optional[float] = None
    if not options.skip_dispatcher:
        requests = service_requests(
            sessions=SESSIONS, requests_per_session=REQUESTS_PER_SESSION, seed=0
        )
        print(
            f"dispatcher mode — {SESSIONS} sessions × "
            f"{REQUESTS_PER_SESSION} interleaved edit/parse requests "
            f"({len(requests)} requests total)"
        )
        for label, stream, capacity in (
            ("cached", requests, 4096),
            ("uncached", requests, 1),
            ("pinned", pinned(requests), 1),
        ):
            result = run_workload(stream, cache_capacity=capacity)
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
        runs = report["dispatcher"]
        if runs["pinned"]["requests_per_second"]:
            default_vs_pinned = (
                runs["uncached"]["requests_per_second"]
                / runs["pinned"]["requests_per_second"]
            )
            report["default_vs_pinned"] = round(default_vs_pinned, 4)
            print(f"  default/pinned uncached = {default_vs_pinned:.2f}x")

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

    print(
        f"tcp mode — cached recognize round trips, 2 process shards vs "
        f"1 inline shard, alternating ({TCP_ROUNDS} each)"
    )
    tcp = run_tcp()
    report["tcp"] = {
        key: (
            {name: round(value, 4) for name, value in entry.items()}
            if isinstance(entry, dict)
            else round(entry, 4) if isinstance(entry, float) else entry
        )
        for key, entry in tcp.items()
    }
    for label in ("process", "inline"):
        entry = tcp[label]
        print(
            f"  {label:8s}: round trip p50 {entry['rtt_p50_ms']:.3f} ms   "
            f"server {entry['server_p50_ms']:.3f} ms   "
            f"relay {entry['relay_p50_ms']:.3f} ms"
        )
    print(f"  process/inline round trip = {tcp['process_vs_inline']:.2f}x")

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
        failures = check_floor(
            options.floor, by_workers, ratio, default_vs_pinned, tcp
        )
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
