"""Shard-aware concurrent scheduling for the parse service.

The PR 1 service answered one request at a time.  This module is the
concurrency layer between any transport (stdin, TCP, tests) and the
dispatcher: a :class:`Scheduler` partitions sessions across worker
*shards*, so that each session's grammar, item-set graph, compiled
tables and caches stay **single-writer**: one shard thread drives each
session.  The only other thread here is the transport's (the
:mod:`repro.service.net` front end, or any caller of ``submit``): it
enqueues under each shard's condition lock and answers ``health``,
``ready`` and ``corpus-*`` itself.

A scheduler runs one of two configurations, picked from ``workers``:

``mode="thread"`` (the default for ``workers=1``)
    One inline shard executes batches against an in-process
    :class:`~repro.service.dispatcher.Dispatcher`: no IPC, for embedding
    and tests.  Only one, because the GIL serializes pure-Python parse
    work: more thread shards over one workspace would only add contention.

``mode="process"`` (the default for ``workers > 1``)
    Every shard owns a child process running the existing stdio serve
    loop (``python -m repro serve``) and speaks the line-delimited JSON
    protocol over its pipes — the transport-independent core reused a
    third time.  Parse work is pure-Python CPU, so this is the mode that
    scales with cores; cross-shard commands (``sessions``/``metrics``/
    ``info``) are broadcast to every shard and merged.

In both configurations every shard applies:

* **batching** — the worker drains up to ``max_batch`` queued requests
  at once and serves them as one unit, in arrival order (a repeated
  ``parse``/``recognize`` in the batch is answered by the dispatcher's
  result cache, the one place that decides two requests are the same);
* **bounded backpressure** — a full shard queue answers immediately with
  an ``overloaded`` error instead of growing without bound;
* **metrics** — queue depth, batch sizes, and p50/p99 latency per shard
  via :class:`~repro.core.metrics.LatencyStats`;
* **graceful drain** — :meth:`Scheduler.close` stops intake, serves
  everything already queued, then joins workers and children.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .. import obs
from ..core.metrics import LatencyStats
from . import faults
from .dispatcher import Dispatcher
from .journal import MutationJournal
from .protocol import ProtocolError, encode, session_of
from .supervision import BackoffPolicy, CircuitBreaker

__all__ = [
    "GLOBAL_COMMANDS",
    "Scheduler",
    "merge_global",
]

#: Commands addressing the whole workspace rather than one session; in
#: process mode these are broadcast to every shard and merged.
GLOBAL_COMMANDS = frozenset({"sessions", "metrics", "metrics-export", "info"})

Request = Dict[str, Any]
Response = Dict[str, Any]


def _error_response(request: Any, message: str, **extra: Any) -> Response:
    """An error response shaped like the dispatcher's (cmd/session echoed)."""
    response: Response = {"error": message}
    if isinstance(request, dict):
        if isinstance(request.get("cmd"), str):
            response["cmd"] = request["cmd"]
        if "session" in request:
            response["session"] = request["session"]
    response.update(extra)
    response["time"] = 0.0
    return response


def _settle(
    future: "Future[Response]", request: Any, compute: Callable[[], Response]
) -> None:
    """Resolve ``future`` with ``compute()`` (an error response if it raises).

    A TCP client that disconnects mid-pipeline cancels its futures;
    ``set_result`` then raises ``InvalidStateError``, and letting that
    escape would kill the resolving worker thread for every other client.
    """
    try:
        response = compute()
    except Exception as error:  # noqa: BLE001 — CancelledError is one
        response = _error_response(request, f"{type(error).__name__}: {error}")
    if not future.cancelled():
        try:
            future.set_result(response)
        except Exception:  # noqa: BLE001 — cancel/set race
            pass


def _resolved(request: Any, message: str, **extra: Any) -> "Future[Response]":
    future: "Future[Response]" = Future()
    future.set_result(_error_response(request, message, **extra))
    return future


# -- executors -------------------------------------------------------------


class InlineExecutor:
    """Thread-mode shard body: batches run on an in-process dispatcher."""

    def __init__(self, dispatcher: Dispatcher) -> None:
        self.dispatcher = dispatcher

    def run(self, requests: List[Request]) -> List[Response]:
        return [self.dispatcher.handle(request) for request in requests]

    def close(self) -> None:
        pass

    def terminate(self) -> None:
        pass


class ProcessExecutor:
    """Process-mode shard body: a ``repro serve`` child over its pipes.

    The child is the unmodified stdio serve loop — one JSON request line
    in, one response line out — so the shard protocol *is* the service
    protocol and needs no second serializer.  Requests are written and
    read strictly one at a time: a shard is sequential by design (that is
    what makes its sessions single-writer), so pipelining into the child
    would buy nothing and risk pipe-buffer deadlock on huge responses.
    """

    def __init__(
        self,
        cache_capacity: int = 1024,
        deadline_ms: Optional[float] = None,
    ) -> None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src_dir = os.path.dirname(package_root)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not existing else src_dir + os.pathsep + existing
        )
        # Fault injection is parent-owned: a child that also parsed
        # REPRO_FAULTS would double-fire every point.
        env.pop(faults.ENV_VAR, None)
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--cache-capacity",
            str(cache_capacity),
        ]
        if deadline_ms is not None:
            argv += ["--deadline-ms", str(deadline_ms)]
        # Child stderr goes to a spooled temp file so crash tracebacks
        # survive the child (a pipe would deadlock a chatty child; the
        # parent only reads this after a failure).
        self._stderr = tempfile.TemporaryFile(mode="w+b")
        self._process = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            text=True,
        )

    @property
    def pid(self) -> int:
        return self._process.pid

    def stderr_tail(self, limit: int = 4096) -> str:
        """The last ``limit`` bytes the child wrote to stderr."""
        try:
            self._stderr.flush()
            size = self._stderr.seek(0, os.SEEK_END)
            self._stderr.seek(max(0, size - limit))
            return self._stderr.read().decode("utf-8", "replace").strip()
        except (OSError, ValueError):
            return ""

    def run(self, requests: List[Request]) -> List[Response]:
        stdin, stdout = self._process.stdin, self._process.stdout
        assert stdin is not None and stdout is not None
        responses: List[Response] = []
        for request in requests:
            if faults.fire("kill-child"):
                self._process.kill()
                self._process.wait(timeout=10)
            stdin.write(encode(request) + "\n")
            stdin.flush()
            line = stdout.readline()
            if not line:
                tail = self.stderr_tail()
                raise RuntimeError(
                    f"shard child (pid {self._process.pid}) exited with "
                    f"code {self._process.poll()}"
                    + (f"; stderr tail: {tail}" if tail else "")
                )
            responses.append(json.loads(line))
        return responses

    def close(self) -> None:
        try:
            if self._process.stdin is not None:
                self._process.stdin.close()
            self._process.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.terminate()
            return
        self._close_stderr()

    def terminate(self) -> None:
        if self._process.poll() is None:
            self._process.kill()
            self._process.wait(timeout=10)
        self._close_stderr()

    def _close_stderr(self) -> None:
        try:
            self._stderr.close()
        except OSError:
            pass


# -- shards ----------------------------------------------------------------


class Shard:
    """One worker: a bounded queue, a batching loop, and its executor.

    The loop drains up to ``max_batch`` queued requests and hands them to
    the executor exactly as drained; responses come back in the same
    order, one per request.

    When built with an ``executor_factory`` the shard is *supervised*:
    an executor crash answers the in-flight batch with a retryable
    ``shard-restarting`` error, then the worker thread respawns the
    executor under exponential backoff with jitter and replays the
    shard's :class:`~repro.service.journal.MutationJournal`, so every
    acknowledged session mutation exists again — at the same grammar
    version — before the next request runs.  A
    :class:`~repro.service.supervision.CircuitBreaker` turns a crash
    *loop* into a terminal ``degraded`` state that fails fast instead of
    burning CPU on doomed respawns.
    """

    #: Shard lifecycle states, also exported as the gauge value of
    #: ``repro.shard.state`` (list index = gauge value).
    STATES = ("ok", "restarting", "degraded")

    def __init__(
        self,
        index: int,
        executor: Any,
        max_depth: int = 256,
        max_batch: int = 16,
        stats_window: int = 512,
        executor_factory: Optional[Callable[[], Any]] = None,
        journal: Optional[MutationJournal] = None,
        backoff: Optional[BackoffPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if max_depth < 1 or max_batch < 1:
            raise ValueError("max_depth and max_batch must be positive")
        self.index = index
        self.executor = executor
        self.max_depth = max_depth
        self.max_batch = max_batch
        self.latency = LatencyStats(window=stats_window)
        self.submitted = 0
        self.completed = 0
        self.overloaded = 0
        self.batches = 0
        self.batched_requests = 0
        self.largest_batch = 0
        # Supervision plumbing.  Without a factory the shard keeps the
        # pre-supervision behaviour: the first executor failure is
        # permanent (an InlineExecutor "crash" is a dispatcher bug, not
        # a recoverable infrastructure fault).
        self.executor_factory = executor_factory
        self.journal = journal if journal is not None else MutationJournal()
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.restarts = 0
        self.replayed_entries = 0
        self._state = "ok"
        self._retry_after_ms = self.backoff.ceiling_ms(0)
        # Per-shard latency histograms in the obs registry.  Recorded in
        # the parent process for both modes (the queue lives here), so a
        # process-mode parent still owns the shard latency surface.
        self._obs_wait = obs.histogram(
            "repro.shard.queue_wait.seconds", shard=str(index)
        )
        self._obs_request = obs.histogram(
            "repro.shard.request.seconds", shard=str(index)
        )
        self._failure: Optional[str] = None
        self._items: Deque[Tuple[Any, "Future[Response]", float]] = deque()
        self._ready = threading.Condition(threading.Lock())
        self._accepting = True
        self._thread = threading.Thread(
            target=self._run, name=f"repro-shard-{index}", daemon=True
        )
        self._thread.start()

    @property
    def supervised(self) -> bool:
        return self.executor_factory is not None

    @property
    def state(self) -> str:
        with self._ready:
            return self._state

    # -- intake ------------------------------------------------------------

    def submit(self, request: Any) -> "Future[Response]":
        with self._ready:
            if not self._accepting:
                return _resolved(
                    request,
                    f"shutting down: shard {self.index} no longer accepts "
                    f"requests",
                    overloaded=True,
                )
            if self._state == "degraded":
                return _resolved(
                    request,
                    "shard-degraded",
                    shard=self.index,
                    detail=(
                        f"shard {self.index} tripped its circuit breaker "
                        f"after {self.restarts} restart(s); last failure: "
                        f"{self._failure}"
                    ),
                )
            if self._state == "restarting":
                # Fail fast instead of queueing behind a recovery of
                # unknown length; the client retries after the hint.
                return _resolved(
                    request,
                    "shard-restarting",
                    shard=self.index,
                    retry_after_ms=round(self._retry_after_ms, 1),
                )
            if len(self._items) >= self.max_depth:
                self.overloaded += 1
                return _resolved(
                    request,
                    f"overloaded: shard {self.index} queue is at its depth "
                    f"limit ({self.max_depth})",
                    overloaded=True,
                )
            future: "Future[Response]" = Future()
            self._items.append((request, future, time.perf_counter()))
            self.submitted += 1
            self._ready.notify()
            return future

    def queue_depth(self) -> int:
        with self._ready:
            return len(self._items)

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        """Stop intake; the worker drains the queue and then exits."""
        with self._ready:
            self._accepting = False
            self._ready.notify()

    def join(self, timeout: Optional[float] = None) -> bool:
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def kill(self) -> None:
        """Last resort for a wedged executor (e.g. a hung child process)."""
        self.executor.terminate()

    # -- the worker loop ---------------------------------------------------

    def _run(self) -> None:
        while True:
            faults.sleep_if_armed("queue-stall")
            with self._ready:
                while not self._items and self._accepting:
                    self._ready.wait()
                if not self._items:
                    break  # closed and drained
                batch = [
                    self._items.popleft()
                    for _ in range(min(len(self._items), self.max_batch))
                ]
            self._serve(batch)
        self.executor.close()

    def _serve(
        self, batch: List[Tuple[Any, "Future[Response]", float]]
    ) -> None:
        faults.sleep_if_armed("delay")
        requests = [request for request, _future, _enqueued in batch]
        started = time.perf_counter()
        responses: Optional[List[Response]] = None
        crashed = False
        if self._failure is None or (self.supervised and self._state == "ok"):
            try:
                responses = self.executor.run(requests)
            except Exception as error:  # noqa: BLE001 — worker boundary
                self._failure = f"{type(error).__name__}: {error}"
                crashed = True
        self.batches += 1
        self.batched_requests += len(batch)
        self.largest_batch = max(self.largest_batch, len(batch))
        finished = time.perf_counter()
        served = responses is not None
        if responses is None:
            responses = [self._failed(request) for request in requests]
        # Journal only under supervision: the unsupervised inline shard
        # never replays, and an unbounded log would just leak.
        journal = served and self.supervised
        for (request, future, enqueued), response in zip(batch, responses):
            queue_wait = max(0.0, started - enqueued)
            if journal:
                self.journal.record(request, response)
            response = self._annotate_trace(response, queue_wait)
            cmd = request.get("cmd") if isinstance(request, dict) else None
            self.latency.record(
                cmd if isinstance(cmd, str) else "<invalid>",
                finished - enqueued,
            )
            self._obs_wait.observe(queue_wait)
            self._obs_request.observe(finished - enqueued)
            self.completed += 1
            _settle(future, request, lambda: response)
        if crashed and self.supervised:
            self._recover()
        elif served:
            self._maybe_compact()

    def _failed(self, request: Any) -> Response:
        """The answer to a request whose batch the executor never served."""
        if self.supervised and self.state == "degraded":
            return _error_response(
                request,
                "shard-degraded",
                shard=self.index,
                detail=(
                    f"shard {self.index} tripped its circuit "
                    f"breaker; last failure: {self._failure}"
                ),
            )
        if self.supervised:
            # The whole batch — including any request the dead executor
            # may have half-applied but never answered — is retryable:
            # replay only reproduces *acknowledged* mutations, so a
            # client retry cannot double-apply.
            return _error_response(
                request,
                "shard-restarting",
                shard=self.index,
                retry_after_ms=round(self._retry_after_ms, 1),
            )
        return _error_response(
            request, f"shard {self.index} failed: {self._failure}"
        )

    # -- supervision -------------------------------------------------------

    def _recover(self) -> None:
        """Respawn + replay until healthy, or trip into ``degraded``.

        Runs on the worker thread: requests submitted meanwhile fail
        fast with ``shard-restarting`` (see :meth:`submit`), so a long
        backoff never wedges clients behind an empty promise.
        """
        with self._ready:
            self._state = "restarting"
        while True:
            now = time.monotonic()
            if not self.breaker.record(now):
                with self._ready:
                    self._state = "degraded"
                obs.counter(
                    "repro.shard.degraded", shard=str(self.index)
                ).inc()
                try:
                    self.executor.terminate()
                except Exception:  # noqa: BLE001 — best-effort cleanup
                    pass
                return
            self.restarts += 1
            obs.counter("repro.shard.restarts", shard=str(self.index)).inc()
            delay_ms = self.backoff.delay_ms(self.breaker.window_count(now) - 1)
            with self._ready:
                # What submit() tells rejected clients: the remaining
                # backoff plus one more ceiling step if this attempt
                # also fails.
                self._retry_after_ms = max(delay_ms, self.backoff.base_ms)
            if delay_ms > 0:
                time.sleep(delay_ms / 1000.0)
            try:
                old = self.executor
                try:
                    old.terminate()
                except Exception:  # noqa: BLE001 — best-effort cleanup
                    pass
                assert self.executor_factory is not None
                self.executor = self.executor_factory()
                self._replay_journal()
            except Exception as error:  # noqa: BLE001 — worker boundary
                self._failure = f"{type(error).__name__}: {error}"
                continue
            with self._ready:
                self._state = "ok"
                self._failure = None
            return

    def _replay_journal(self) -> None:
        """Feed the journal back through the fresh executor.

        Any error response fails the replay — a half-rebuilt session
        must look like a crash (another supervised restart), never like
        a healthy shard with silently missing state.
        """
        requests = self.journal.replay_requests()
        if not requests:
            return
        responses = self.executor.run(requests)
        for request, response in zip(requests, responses):
            if isinstance(response, dict) and "error" in response:
                raise RuntimeError(
                    f"journal replay of {request.get('cmd')!r} for session "
                    f"{request.get('session')!r} failed: {response['error']}"
                )
        self.replayed_entries += len(requests)

    def _maybe_compact(self) -> None:
        """Collapse an over-long session run into one snapshot restore.

        Runs on the worker thread between batches — the only thread that
        talks to the executor — so the ``snapshot`` round-trip cannot
        interleave with client requests.
        """
        if not self.supervised:
            return
        session = self.journal.needs_compaction()
        if session is None:
            return
        try:
            [response] = self.executor.run(
                [{"cmd": "snapshot", "session": session}]
            )
        except Exception as error:  # noqa: BLE001 — worker boundary
            self._failure = f"{type(error).__name__}: {error}"
            self._recover()
            return
        payload = (
            response.get("snapshot") if isinstance(response, dict) else None
        )
        if isinstance(payload, dict):
            self.journal.compact(session, payload)

    def health(self) -> Dict[str, Any]:
        """Liveness and supervision state, as reported by ``health``."""
        with self._ready:
            state = self._state
            retry_after_ms = self._retry_after_ms
        report: Dict[str, Any] = {
            "index": self.index,
            "state": state,
            "alive": self._thread.is_alive(),
            "restarts": self.restarts,
            "queue_depth": self.queue_depth(),
            "breaker": self.breaker.stats(),
            "journal": self.journal.stats(),
        }
        if state == "restarting":
            report["retry_after_ms"] = round(retry_after_ms, 1)
        if self._failure is not None:
            report["failure"] = self._failure
        pid = getattr(self.executor, "pid", None)
        if pid is not None:
            report["pid"] = pid
        return report

    def _annotate_trace(self, response: Response, queue_wait: float) -> Response:
        """Stamp shard context onto a traced response's span tree.

        The dispatcher's root span cannot see the queue (it starts after
        the dequeue), so the shard adds what only it knows: its index and
        the queue wait.  The trace dict is copied, not mutated in place.
        """
        if not isinstance(response, dict):
            return response
        tree = response.get("trace")
        if not isinstance(tree, dict):
            return response
        tree = dict(tree)
        attributes = dict(tree.get("attributes", ()))
        attributes["shard"] = self.index
        attributes["queue_wait"] = round(queue_wait, 6)
        tree["attributes"] = attributes
        response = dict(response)
        response["trace"] = tree
        return response

    # -- introspection -----------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "queue_depth": self.queue_depth(),
            "submitted": self.submitted,
            "completed": self.completed,
            "overloaded": self.overloaded,
            "batches": self.batches,
            "mean_batch": (
                round(self.batched_requests / self.batches, 3)
                if self.batches
                else 0.0
            ),
            "largest_batch": self.largest_batch,
            "state": self.state,
            "restarts": self.restarts,
            "failure": self._failure,
            "latency": self.latency.snapshot(),
        }

    def __repr__(self) -> str:
        return (
            f"Shard({self.index}, depth={self.queue_depth()}, "
            f"completed={self.completed})"
        )


# -- merging broadcast responses (process mode) ----------------------------


def _merge_cache_stats(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged = {
        key: sum(part.get(key, 0) for part in parts)
        for key in ("hits", "misses", "evictions", "invalidations")
    }
    lookups = merged["hits"] + merged["misses"]
    merged["hit_rate"] = round(merged["hits"] / lookups, 4) if lookups else 0.0
    return merged


def _merge_latency(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for key, entry in part.items():
            slot = merged.setdefault(key, {"count": 0, "seconds": 0.0})
            slot["count"] += entry.get("count", 0)
            slot["seconds"] += entry.get("seconds", 0.0)
    for slot in merged.values():
        slot["seconds"] = round(slot["seconds"], 6)
        slot["mean"] = (
            round(slot["seconds"] / slot["count"], 6) if slot["count"] else 0.0
        )
    return merged


def merge_global(request: Any, parts: List[Response]) -> Response:
    """One response for a global command broadcast to every shard."""
    for part in parts:
        if "error" in part:
            return part
    cmd = request.get("cmd") if isinstance(request, dict) else None
    elapsed = round(max(part.get("time", 0.0) for part in parts), 6)
    if cmd == "sessions":
        merged_names: set = set()
        for part in parts:
            merged_names.update(part.get("sessions", ()))
        return {"cmd": "sessions", "sessions": sorted(merged_names), "time": elapsed}
    if cmd == "info":
        merged = dict(parts[0])
        names = set()
        for part in parts:
            names.update(part.get("sessions", ()))
        merged["sessions"] = sorted(names)
        merged["time"] = elapsed
        return merged
    if cmd == "metrics-export":
        # Children answered in JSON regardless of the requested format
        # (the parent re-renders); keep the per-shard snapshots so
        # callers can audit that the merge preserved the totals.
        shard_snapshots = [part.get("metrics", {}) for part in parts]
        merged = {
            "cmd": "metrics-export",
            "format": "json",
            "metrics": obs.MetricsRegistry.merge(shard_snapshots),
            "shards": shard_snapshots,
            "time": elapsed,
        }
        spans: List[Any] = []
        for part in parts:
            spans.extend(part.get("spans", ()))
        if spans:
            merged["spans"] = spans
        return merged
    if cmd == "metrics":
        action_keys = sorted(
            {key for part in parts for key in part.get("action_cache", {})}
        )
        return {
            "cmd": "metrics",
            "sessions": sum(part.get("sessions", 0) for part in parts),
            "cache": _merge_cache_stats([part.get("cache", {}) for part in parts]),
            "cache_entries": sum(part.get("cache_entries", 0) for part in parts),
            "action_cache": {
                key: sum(part.get("action_cache", {}).get(key, 0) for part in parts)
                for key in action_keys
            },
            "requests": _merge_latency([part.get("requests", {}) for part in parts]),
            "time": elapsed,
        }
    return dict(parts[0])


# -- the scheduler ---------------------------------------------------------


class Scheduler:
    """Routes requests to session-owning shards; the transport-facing API.

    Implements the same ``handle(request) -> response`` contract as
    :class:`~repro.service.dispatcher.Dispatcher` (so ``serve``/
    ``run_batch`` accept either), plus a non-blocking ``submit`` returning
    a :class:`concurrent.futures.Future` for async transports.
    """

    def __init__(
        self,
        workers: int = 1,
        mode: Optional[str] = None,
        max_depth: int = 256,
        max_batch: int = 16,
        cache_capacity: int = 1024,
        dispatcher: Optional[Dispatcher] = None,
        stats_window: int = 512,
        deadline_ms: Optional[float] = None,
        max_restarts: int = 5,
        restart_window: float = 60.0,
        backoff_ms: float = 50.0,
        max_backoff_ms: float = 5_000.0,
        compact_threshold: int = 32,
        corpus_root: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if max_depth < 1 or max_batch < 1:
            # Validated before any executor exists: raising after the
            # process-mode spawns would leak live children.
            raise ValueError("max_depth and max_batch must be positive")
        self.mode = mode if mode is not None else (
            "process" if workers > 1 else "thread"
        )
        if self.mode not in ("thread", "process"):
            raise ValueError(f"unknown scheduler mode {self.mode!r}")
        if self.mode == "thread" and workers > 1:
            raise ValueError(
                f"thread mode runs one inline shard; workers={workers} "
                f"needs mode='process'"
            )
        self.deadline_ms = deadline_ms
        self.dispatcher: Optional[Dispatcher] = None
        factory: Optional[Callable[[], Any]] = None
        if self.mode == "thread":
            self.dispatcher = (
                dispatcher
                if dispatcher is not None
                else Dispatcher(
                    cache_capacity=cache_capacity,
                    default_deadline_ms=deadline_ms,
                )
            )
            executors: List[Any] = [InlineExecutor(self.dispatcher)]
        else:
            if dispatcher is not None:
                raise ValueError(
                    "process mode builds a dispatcher per child; "
                    "an injected dispatcher would be silently unused"
                )

            def factory() -> ProcessExecutor:
                return ProcessExecutor(
                    cache_capacity=cache_capacity, deadline_ms=deadline_ms
                )

            executors = []
            try:
                for _ in range(workers):
                    executors.append(factory())
            except BaseException:
                # A failed spawn (EAGAIN/ENOMEM) must not leak the
                # children already started — nothing would ever reach
                # them once __init__ raises.
                for executor in executors:
                    try:
                        executor.terminate()
                    except Exception:  # noqa: BLE001 — best-effort cleanup
                        pass
                raise
        self.shards = [
            Shard(
                index,
                executor,
                max_depth,
                max_batch,
                stats_window,
                executor_factory=factory,
                journal=MutationJournal(compact_threshold=compact_threshold),
                backoff=BackoffPolicy(base_ms=backoff_ms, max_ms=max_backoff_ms),
                breaker=CircuitBreaker(
                    max_restarts=max_restarts, window_seconds=restart_window
                ),
            )
            for index, executor in enumerate(executors)
        ]
        self._closed = False
        self.corpus = None
        if corpus_root is not None:
            # Lazily imported: repro.corpus layers *above* the service
            # (its jobs submit ordinary parse requests right back here).
            from ..corpus.manager import CorpusManager

            # The manager lives parent-side — corpus state is process
            # global — while its parse traffic flows through the normal
            # shard queues via submit(), so batch jobs queue *behind*
            # interactive requests under the same backpressure bound.
            self.corpus = CorpusManager(
                corpus_root,
                submit=self.submit,
                shard_count=len(self.shards),
                shard_of=self.shard_of,
            )
        # Shard work counters for the obs registry, polled at snapshot
        # time and weakly bound — a dropped scheduler stops reporting.
        obs.register_object_collector(self, Scheduler._collect_metrics)

    @staticmethod
    def _collect_metrics(self: "Scheduler"):
        for shard in self.shards:
            labels = {"shard": str(shard.index)}
            yield ("repro.shard.submitted", labels, "counter", shard.submitted)
            yield ("repro.shard.completed", labels, "counter", shard.completed)
            yield ("repro.shard.overloaded", labels, "counter", shard.overloaded)
            yield ("repro.shard.batches", labels, "counter", shard.batches)
            yield ("repro.shard.queue_depth", labels, "gauge", shard.queue_depth())
            yield ("repro.shard.restarts", labels, "counter", shard.restarts)
            yield (
                "repro.shard.state",
                labels,
                "gauge",
                Shard.STATES.index(shard.state),
            )

    # -- routing -----------------------------------------------------------

    @property
    def workspace(self):
        """The inline shard's workspace (None in process mode)."""
        return self.dispatcher.workspace if self.dispatcher is not None else None

    def shard_of(self, session: str) -> int:
        """Stable session -> shard assignment (CRC32, not the salted hash)."""
        return zlib.crc32(session.encode("utf-8")) % len(self.shards)

    def submit(self, request: Any) -> "Future[Response]":
        """Enqueue one request; the future resolves to its response."""
        cmd = request.get("cmd") if isinstance(request, dict) else None
        if isinstance(cmd, str) and cmd.startswith("corpus-"):
            # Served parent-side, like health/ready: corpus state (the
            # registry, journals, jobs) is owned by this process, and
            # only the per-document parse work is routed to shards.
            # Served synchronously on the caller's thread — a
            # ``corpus-parse`` with ``wait`` blocks its own client, and
            # a shard worker thread must never serve one (the job would
            # deadlock waiting on that same shard's queue).
            future: "Future[Response]" = Future()
            if self.corpus is None:
                future.set_result(
                    _error_response(
                        request,
                        f"{cmd!r} needs a corpus root — start the "
                        f"service with --corpus-root DIR",
                    )
                )
            else:
                future.set_result(self.corpus.serve(request))
            return future
        if cmd in ("health", "ready"):
            # Answered parent-side without touching any shard queue: a
            # wedged or restarting shard must never block the probe that
            # exists to report exactly that condition.
            future: "Future[Response]" = Future()
            future.set_result(
                self.health_response()
                if cmd == "health"
                else self.ready_response()
            )
            return future
        try:
            session = session_of(request) if isinstance(request, dict) else None
        except ProtocolError as error:
            return _resolved(request, str(error))
        if session is not None:
            return self.shards[self.shard_of(session)].submit(request)
        if cmd == "restore":
            return _resolved(
                request,
                "'restore' under a sharded scheduler needs a 'session' "
                "field (or a snapshot payload naming one) to route by",
            )
        if cmd == "metrics-export" and self.mode == "process":
            # Children hold the session registries; ask every one for a
            # JSON snapshot (whatever format the caller wants — the
            # parent renders), merge, then fold in the parent's own
            # registry (shard queues/latency live here).
            inner = dict(request)
            inner["format"] = "json"
            inner.pop("trace", None)
            return self._finish_metrics_export(request, self._broadcast(inner))
        if cmd in GLOBAL_COMMANDS and len(self.shards) > 1:
            future = self._broadcast(request)
        else:
            future = self.shards[0].submit(request)
        if cmd == "metrics":
            return self._with_scheduler_metrics(request, future)
        return future

    def handle(self, request: Any) -> Response:
        """Blocking dispatch — the Dispatcher-compatible entry point."""
        return self.submit(request).result()

    def _broadcast(self, request: Request) -> "Future[Response]":
        futures = [shard.submit(dict(request)) for shard in self.shards]
        result: "Future[Response]" = Future()
        lock = threading.Lock()
        remaining = {"count": len(futures)}

        def finish(_future: "Future[Response]") -> None:
            with lock:
                remaining["count"] -= 1
                if remaining["count"]:
                    return
            _settle(
                result,
                request,
                lambda: merge_global(request, [f.result() for f in futures]),
            )

        for future in futures:
            future.add_done_callback(finish)
        return result

    def _finish_metrics_export(
        self, request: Request, future: "Future[Response]"
    ) -> "Future[Response]":
        """Parent-side half of a process-mode ``metrics-export``.

        Folds the parent registry (shard latency histograms, scheduler
        counters) into the merged child snapshots, recomputes the global
        laziness ratio (child fractions must not be summed), and renders
        the caller's requested format.
        """

        def finish(response: Response) -> Response:
            response = dict(response)
            if "error" not in response:
                parent = obs.REGISTRY.snapshot()
                merged = obs.MetricsRegistry.merge(
                    [response.get("metrics", {}), parent]
                )
                fraction = merged.get("repro.lazy.table_fraction")
                if fraction is not None:
                    total = merged.get("repro.lazy.full_table_states", {}).get(
                        "value", 0
                    )
                    done_states = merged.get(
                        "repro.lazy.states_materialized", {}
                    ).get("value", 0)
                    fraction["value"] = (
                        round(done_states / total, 4) if total else 0.0
                    )
                response["parent"] = parent
                response["metrics"] = merged
                fmt = request.get("format", "prometheus")
                response["format"] = fmt
                if fmt == "prometheus":
                    response["text"] = obs.render_prometheus(merged)
                    # The text is the product; the raw snapshots would
                    # triple the payload for a scrape that ignores them.
                    response.pop("metrics", None)
                    response.pop("shards", None)
                    response.pop("parent", None)
            response.setdefault("cmd", "metrics-export")
            return response

        wrapped: "Future[Response]" = Future()
        future.add_done_callback(
            lambda done: _settle(wrapped, request, lambda: finish(done.result()))
        )
        return wrapped

    def _with_scheduler_metrics(
        self, request: Request, future: "Future[Response]"
    ) -> "Future[Response]":
        """Attach per-shard scheduler metrics to a global metrics response."""
        if isinstance(request, dict) and "session" in request:
            return future

        def enrich(response: Response) -> Response:
            response = dict(response)
            if "error" not in response:
                response["scheduler"] = self.metrics()
            return response

        wrapped: "Future[Response]" = Future()
        future.add_done_callback(
            lambda done: _settle(wrapped, request, lambda: enrich(done.result()))
        )
        return wrapped

    # -- introspection -----------------------------------------------------

    def health_response(self) -> Response:
        """The ``health`` command's answer: per-shard supervision state."""
        started = time.perf_counter()
        shards = [shard.health() for shard in self.shards]
        healthy = all(
            entry["state"] == "ok" and entry["alive"] for entry in shards
        )
        return {
            "cmd": "health",
            "healthy": healthy,
            "mode": self.mode,
            "workers": len(self.shards),
            "restarts": sum(entry["restarts"] for entry in shards),
            "shards": shards,
            "time": round(time.perf_counter() - started, 6),
        }

    def ready_response(self) -> Response:
        """The ``ready`` command's answer: can this scheduler take traffic?

        Ready is softer than healthy: a shard mid-restart still counts
        (its requests fail fast but retryably); only a degraded shard —
        or a closed scheduler — makes the service not ready.
        """
        started = time.perf_counter()
        degraded = [
            shard.index for shard in self.shards if shard.state == "degraded"
        ]
        ready = not self._closed and not degraded
        response: Response = {
            "cmd": "ready",
            "ready": ready,
            "time": round(time.perf_counter() - started, 6),
        }
        if degraded:
            response["degraded_shards"] = degraded
        if self._closed:
            response["closed"] = True
        return response

    def metrics(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "workers": len(self.shards),
            "queue_depth": sum(s.queue_depth() for s in self.shards),
            "overloaded": sum(s.overloaded for s in self.shards),
            "shards": [shard.metrics() for shard in self.shards],
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful drain: stop intake, serve the queues, join everything.

        A shard that fails to drain within ``timeout`` (a wedged child
        process) is killed; its queued requests resolve with shard-failure
        errors rather than hanging their clients forever.
        """
        if self._closed:
            return
        self._closed = True
        if self.corpus is not None:
            # Before the shards: parked jobs still submit to them, and a
            # job's in-flight documents should journal before the drain.
            self.corpus.close()
        for shard in self.shards:
            shard.close()
        for shard in self.shards:
            if not shard.join(timeout):
                shard.kill()
                shard.join(timeout)

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Scheduler({len(self.shards)} {self.mode} shard"
            f"{'s' if len(self.shards) != 1 else ''})"
        )
