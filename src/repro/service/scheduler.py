"""Shard-aware concurrent scheduling for the parse service.

The concurrency layer between any transport (stdin, TCP, tests) and the
dispatcher: a :class:`Scheduler` partitions sessions across worker
*shards*, so that each session's grammar, item-set graph, compiled
tables and caches stay **single-writer**: one shard serves each session.

**Threads.**  The scheduler owns one asyncio event loop on its own thread
(``repro-scheduler``).  The sockets of a
:class:`~repro.service.net.ParseServer` and the pipes of process-shard
children live on it, and each process shard is pumped from it: a batch
goes to the child's stdin in one write and is answered from the callback
that reads its stdout.  A TCP request thus goes from the socket read to
the child and back to the socket write on one thread.  Other threads
(``handle``, ``run_batch``, corpus jobs, benches) put a request naming a
session straight onto its shard's queue (:meth:`Scheduler.submit`), and
wake the shard's loop only when the shard is idle; anything else reaches
the loop with ``call_soon_threadsafe``.  ``health`` and ``ready`` are
answered on the loop; ``corpus-*`` commands run in arrival order on a
thread of their own (``repro-corpus-serve``), since a waited
``corpus-parse`` blocks until its job, whose parses queue on these
shards, ends.

A scheduler runs one of two configurations, picked from ``workers``:

``mode="thread"`` (the default for ``workers=1``)
    One inline shard runs batches against an in-process
    :class:`~repro.service.dispatcher.Dispatcher`, on an event loop of
    its own (``repro-inline``) so a long parse never stalls the
    scheduler's: no IPC, for embedding and tests.  A blocking
    :meth:`Scheduler.handle` on a thread without a loop serves an idle
    inline shard's batch itself instead of waiting for that loop.  Only
    one shard, because the GIL serializes pure-Python parse work.

``mode="process"`` (the default for ``workers > 1``)
    Every shard owns a child process running the stdio serve loop
    (``python -m repro serve``) and speaks the line-delimited JSON
    protocol over its pipes: no thread per shard.  Parse work is
    pure-Python CPU, so this is the mode that scales with cores;
    cross-shard commands (``sessions``/``metrics``/``info``) are
    broadcast to every shard and merged.

In both configurations every shard applies:

* **batching** — the pump drains up to ``max_batch`` queued requests
  at once and serves them as one unit, in arrival order (a repeated
  ``parse``/``recognize`` in the batch is answered by the dispatcher's
  result cache, the one place that decides two requests are the same);
* **bounded backpressure** — a full shard queue answers immediately with
  an ``overloaded`` error instead of growing without bound;
* **metrics** — queue depth, batch sizes, and p50/p99 latency per shard
  via :class:`~repro.core.metrics.LatencyStats`;
* **graceful drain** — :meth:`Scheduler.close` stops intake, serves
  everything already queued, then closes the executors and the loop.
"""

from __future__ import annotations

import asyncio
import threading
import time
import zlib
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Deque, Dict, List, Optional, Tuple

from .. import obs
from ..core.metrics import LatencyStats
from ..runtime.deadline import active_deadline
from . import faults
from .dispatcher import Dispatcher
from .executors import InlineExecutor, ProcessExecutor
from .journal import MutationJournal
from .protocol import ProtocolError, session_of
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


def _start_loop(name: str) -> Tuple[asyncio.AbstractEventLoop, threading.Thread]:
    """A new event loop running forever on a daemon thread ``name``."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name=name, daemon=True)
    thread.start()
    return loop, thread


def _answered(response: Response) -> "asyncio.Future[Response]":
    """A loop-side future already holding ``response``."""
    future = asyncio.get_running_loop().create_future()
    future.set_result(response)
    return future


def _settle(answers: List[Tuple[Any, Response]]) -> None:
    """Resolve each future with its response; call on the future's loop
    (any thread for a concurrent future)."""
    for future, response in answers:
        # A TCP client that disconnects mid-pipeline cancels its
        # futures; its requests still ran, the answers go nowhere.
        if not future.cancelled():
            future.set_result(response)


# -- shards ----------------------------------------------------------------


class Shard:
    """One worker: a bounded queue, a batching pump, and its executor.

    The pump hands up to ``max_batch`` queued requests to the executor as
    one batch; the batch's completion callback answers them in order and
    pumps again.  The shard lives on one event loop but is fed from any
    thread: :meth:`submit` appends under a short lock and schedules the
    pump only when the shard is idle.  Supervision, compaction and the
    ``delay``/``queue-stall`` fault sleeps are coroutines on that loop
    that pump again when done.

    When built with an ``executor_factory`` the shard is *supervised*:
    an executor crash answers the in-flight batch with a retryable
    ``shard-restarting`` error, then the shard respawns the executor
    under exponential backoff with jitter and replays the shard's
    :class:`~repro.service.journal.MutationJournal`, so every
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
        max_depth: int,
        max_batch: int,
        stats_window: int,
        executor_factory: Optional[Callable[[], Awaitable[Any]]],
        journal: MutationJournal,
        backoff: BackoffPolicy,
        breaker: CircuitBreaker,
    ) -> None:
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
        self.journal = journal
        self.backoff = backoff
        self.breaker = breaker
        self.restarts = 0
        self.replayed_entries = 0
        self.state = "ok"
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
        self._loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._items: Deque[Tuple[Any, Any, float]] = deque()
        # True while no batch is in flight and no pump is scheduled: the
        # next submit schedules one.
        self._idle = True
        self._pumping = False
        self._again = False
        self._accepting = True
        self._done: "Future[None]" = Future()

    @property
    def supervised(self) -> bool:
        return self.executor_factory is not None

    @property
    def alive(self) -> bool:
        """True until the shard has drained and closed its executor."""
        return not self._done.done()

    # -- intake ------------------------------------------------------------

    def submit(self, request: Any, future: Any, serve_here: bool = False) -> None:
        """Enqueue ``request`` from any thread; ``future`` (a running
        concurrent future, or an asyncio future of the caller's loop)
        resolves to its response, at once for a refusal.  With
        ``serve_here`` a caller about to block on it may serve the batch
        itself."""
        refusal: Optional[Response] = None
        with self._lock:
            if not self._accepting:
                refusal = _error_response(
                    request,
                    f"shutting down: shard {self.index} no longer accepts "
                    f"requests",
                    overloaded=True,
                )
            elif self.state != "ok":
                # Fail fast instead of queueing behind a recovery of
                # unknown length; the client retries after the hint.
                refusal = self._failed(request)
            elif len(self._items) >= self.max_depth:
                self.overloaded += 1
                refusal = _error_response(
                    request,
                    f"overloaded: shard {self.index} queue is at its depth "
                    f"limit ({self.max_depth})",
                    overloaded=True,
                )
            else:
                self._items.append((request, future, time.perf_counter()))
                self.submitted += 1
                wake, self._idle = self._idle, False
        if refusal is not None:
            future.set_result(refusal)
        elif wake:
            self._wake(serve_here)

    def _wake(self, serve_here: bool = False) -> None:
        if threading.get_ident() == self._loop_thread:
            self._pump()
        elif serve_here and self._may_serve_here():
            self._serve_here()
        else:
            self._loop.call_soon_threadsafe(self._pump)

    def _may_serve_here(self) -> bool:
        """Whether the calling thread may serve an in-process batch: not
        on a loop (its sockets would stall), with no shard fault armed,
        and no span or deadline open that the dispatcher's would nest
        under."""
        if not getattr(self.executor, "runs_on_any_thread", False):
            return False
        try:
            asyncio.get_running_loop()
            return False
        except RuntimeError:
            pass
        return (
            obs.current_span() is obs.NULL_SPAN
            and active_deadline() is None
            and not faults.armed("queue-stall")
            and not faults.armed("delay")
        )

    def _serve_here(self) -> None:
        """Serve one batch on the calling thread; leave the rest to the
        loop."""
        self._pumping = True
        try:
            self._take()
        finally:
            self._pumping = False
        if not self._again:
            return  # the pump went elsewhere (a fault sleep, the finish)
        self._again = False
        with self._lock:
            rest = bool(self._items) or not self._accepting
            self._idle = not rest
        if rest:
            self._loop.call_soon_threadsafe(self._pump)

    def _spawn(self, coroutine: Awaitable[None]) -> None:
        """Run ``coroutine`` on the shard's loop, from any thread."""
        if threading.get_ident() == self._loop_thread:
            self._loop.create_task(coroutine)
        else:
            asyncio.run_coroutine_threadsafe(coroutine, self._loop)

    def queue_depth(self) -> int:
        return len(self._items)

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        """Stop intake; the pump drains the queue, then closes the
        executor."""
        with self._lock:
            self._accepting = False
            wake, self._idle = self._idle, False
        if wake:
            self._wake()

    async def wait_closed(self, timeout: Optional[float] = None) -> bool:
        """Wait up to ``timeout`` s, on any loop, for the shard to close;
        True if it did."""
        await asyncio.wait({asyncio.wrap_future(self._done)}, timeout=timeout)
        return self._done.done()

    def kill(self) -> None:
        """Last resort for a wedged executor (e.g. a hung child process)."""
        self.executor.terminate()

    # -- the pump ----------------------------------------------------------

    def _pump(self) -> None:
        """Start the next batch.  A batch that completes before
        :meth:`_serve` returns pumps again as the next turn of this loop,
        not one level deeper per batch."""
        if self._pumping:
            self._again = True
            return
        self._pumping = True
        try:
            self._again = True
            while self._again:
                self._again = False
                if faults.armed("queue-stall"):
                    self._spawn(self._after_fault("queue-stall", self._take))
                else:
                    self._take()
        finally:
            self._pumping = False

    def _take(self) -> None:
        with self._lock:
            batch = [
                self._items.popleft()
                for _ in range(min(len(self._items), self.max_batch))
            ]
            if not batch:
                closing = not self._accepting
                # A closed, drained shard stays busy: nothing wakes it.
                self._idle = not closing
        if not batch:
            if closing:
                self._spawn(self._finish())
            return
        if faults.armed("delay"):
            self._spawn(self._after_fault("delay", lambda: self._serve(batch)))
        else:
            self._serve(batch)

    async def _after_fault(self, point: str, then: Callable[[], None]) -> None:
        await faults.sleep_if_armed(point)
        then()

    async def _finish(self) -> None:
        try:
            await self.executor.close()
        finally:
            self._done.set_result(None)

    def _serve(self, batch: List[Tuple[Any, Any, float]]) -> None:
        requests = [request for request, _future, _enqueued in batch]
        started = time.perf_counter()
        if self._failure is None or (self.supervised and self.state == "ok"):
            self.executor.begin(
                requests, lambda result: self._complete(batch, started, result)
            )
        else:
            self._complete(batch, started, None)

    def _complete(
        self,
        batch: List[Tuple[Any, Any, float]],
        started: float,
        result: Any,
    ) -> None:
        """Answer ``batch`` from ``result`` — its responses, the exception
        that failed it, or None when it never ran — and pump on."""
        crashed = isinstance(result, BaseException)
        if crashed:
            self._failure = f"{type(result).__name__}: {result}"
        self.batches += 1
        self.batched_requests += len(batch)
        self.largest_batch = max(self.largest_batch, len(batch))
        finished = time.perf_counter()
        served = isinstance(result, list)
        responses = (
            result if served else [self._failed(request) for request, _f, _e in batch]
        )
        # Journal only under supervision: the unsupervised inline shard
        # never replays, and an unbounded log would just leak.
        journal = served and self.supervised
        here = threading.get_ident() == self._loop_thread
        recorded = False
        local: List[Tuple[Any, Response]] = []
        elsewhere: Dict[Any, List[Tuple[Any, Response]]] = {}
        for (request, future, enqueued), response in zip(batch, responses):
            queue_wait = max(0.0, started - enqueued)
            if journal and self.journal.record(request, response):
                recorded = True
            response = self._annotate_trace(response, queue_wait)
            cmd = request.get("cmd") if isinstance(request, dict) else None
            self.latency.record(
                cmd if isinstance(cmd, str) else "<invalid>",
                finished - enqueued,
            )
            self._obs_wait.observe(queue_wait)
            self._obs_request.observe(finished - enqueued)
            self.completed += 1
            if isinstance(future, asyncio.Future) and (
                future.get_loop() is not self._loop or not here
            ):
                elsewhere.setdefault(future.get_loop(), []).append(
                    (future, response)
                )
            else:
                local.append((future, response))
        _settle(local)
        for loop, settled in elsewhere.items():
            loop.call_soon_threadsafe(_settle, settled)
        if crashed and self.supervised:
            self._spawn(self._then_pump(self._recover()))
        elif recorded and self.journal.needs_compaction() is not None:
            self._spawn(self._then_pump(self._compact()))
        else:
            self._pump()

    async def _then_pump(self, step: Awaitable[None]) -> None:
        await step
        self._pump()

    async def _round_trip(self, requests: List[Request]) -> List[Response]:
        """Serve ``requests`` on the executor outside the queue."""
        answered = self._loop.create_future()
        self.executor.begin(requests, answered.set_result)
        result = await answered
        if isinstance(result, BaseException):
            raise result
        return result

    def _failed(self, request: Any) -> Response:
        """The answer to a request whose batch the executor never served."""
        if self.supervised and self.state == "degraded":
            return _error_response(
                request,
                "shard-degraded",
                shard=self.index,
                detail=(
                    f"shard {self.index} tripped its circuit breaker "
                    f"after {self.restarts} restart(s); last failure: "
                    f"{self._failure}"
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

    async def _recover(self) -> None:
        """Respawn + replay until healthy, or trip into ``degraded``.

        Runs between batches, in place of the pump: requests submitted
        meanwhile fail fast with ``shard-restarting`` (see
        :meth:`submit`), and the backoff is an ``asyncio.sleep``, so
        neither the other shards nor the sockets wait on it.
        """
        self.state = "restarting"
        while True:
            now = time.monotonic()
            if not self.breaker.record(now):
                self.state = "degraded"
                obs.counter(
                    "repro.shard.degraded", shard=str(self.index)
                ).inc()
                await self._discard(self.executor)
                return
            self.restarts += 1
            obs.counter("repro.shard.restarts", shard=str(self.index)).inc()
            delay_ms = self.backoff.delay_ms(self.breaker.window_count(now) - 1)
            # What submit() tells rejected clients: the remaining
            # backoff plus one more ceiling step if this attempt also
            # fails.
            self._retry_after_ms = max(delay_ms, self.backoff.base_ms)
            if delay_ms > 0:
                await asyncio.sleep(delay_ms / 1000.0)
            try:
                await self._discard(self.executor)
                assert self.executor_factory is not None
                self.executor = await self.executor_factory()
                await self._replay_journal()
            except Exception as error:  # noqa: BLE001 — worker boundary
                self._failure = f"{type(error).__name__}: {error}"
                continue
            self.state = "ok"
            self._failure = None
            return

    @staticmethod
    async def _discard(executor: Any) -> None:
        """Kill and reap a failed executor, best effort."""
        try:
            executor.terminate()
            await executor.close()
        except Exception:  # noqa: BLE001 — best-effort cleanup
            pass

    async def _replay_journal(self) -> None:
        """Feed the journal back through the fresh executor.

        Any error response fails the replay — a half-rebuilt session
        must look like a crash (another supervised restart), never like
        a healthy shard with silently missing state.
        """
        requests = self.journal.replay_requests()
        if not requests:
            return
        responses = await self._round_trip(requests)
        for request, response in zip(requests, responses):
            if isinstance(response, dict) and "error" in response:
                raise RuntimeError(
                    f"journal replay of {request.get('cmd')!r} for session "
                    f"{request.get('session')!r} failed: {response['error']}"
                )
        self.replayed_entries += len(requests)

    async def _compact(self) -> None:
        """Collapse an over-long session run into one snapshot restore.

        Runs between batches, in place of the pump, so the ``snapshot``
        round-trip cannot interleave with client requests.
        """
        session = self.journal.needs_compaction()
        if session is None:
            return
        try:
            [response] = await self._round_trip(
                [{"cmd": "snapshot", "session": session}]
            )
        except Exception as error:  # noqa: BLE001 — worker boundary
            self._failure = f"{type(error).__name__}: {error}"
            await self._recover()
            return
        payload = (
            response.get("snapshot") if isinstance(response, dict) else None
        )
        if isinstance(payload, dict):
            self.journal.compact(session, payload)

    def health(self) -> Dict[str, Any]:
        """Liveness and supervision state, as reported by ``health``."""
        state = self.state
        report: Dict[str, Any] = {
            "index": self.index,
            "state": state,
            "alive": self.alive,
            "restarts": self.restarts,
            "queue_depth": self.queue_depth(),
            "breaker": self.breaker.stats(),
            "journal": self.journal.stats(),
        }
        if state == "restarting":
            report["retry_after_ms"] = round(self._retry_after_ms, 1)
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
        tree = response.get("trace") if isinstance(response, dict) else None
        if not isinstance(tree, dict):
            return response
        attributes = dict(tree.get("attributes", ()))
        attributes.update(shard=self.index, queue_wait=round(queue_wait, 6))
        return {**response, "trace": {**tree, "attributes": attributes}}

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
    a :class:`concurrent.futures.Future` for other threads, and
    :meth:`dispatch` returning an asyncio future for code on the
    scheduler's own loop (:attr:`loop`).
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
        factory: Optional[Callable[[], Awaitable[Any]]] = None
        executors: List[Any] = []
        if self.mode == "thread":
            self.dispatcher = (
                dispatcher
                if dispatcher is not None
                else Dispatcher(
                    cache_capacity=cache_capacity,
                    default_deadline_ms=deadline_ms,
                )
            )
            executors.append(InlineExecutor(self.dispatcher))
        else:
            if dispatcher is not None:
                raise ValueError(
                    "process mode builds a dispatcher per child; "
                    "an injected dispatcher would be silently unused"
                )

            async def factory() -> ProcessExecutor:
                return await ProcessExecutor.spawn(
                    cache_capacity=cache_capacity, deadline_ms=deadline_ms
                )

        self._drained: Optional["asyncio.Task[None]"] = None
        # Requests from other threads on their way through the loop; while
        # any are, session requests take that path too, to stay in order.
        self._in_transit = 0
        self._transit_lock = threading.Lock()
        self._loops = [_start_loop("repro-scheduler")]
        if self.mode == "thread":
            self._loops.append(_start_loop("repro-inline"))
        self.loop, self._thread = self._loops[0]
        shard_loop = self._loops[-1][0]

        async def start() -> List[Shard]:
            try:
                while len(executors) < workers:
                    assert factory is not None
                    executors.append(await factory())
            except BaseException:
                # A failed spawn (EAGAIN/ENOMEM) must not leak the
                # children already started — nothing would ever reach
                # them once __init__ raises.
                for executor in executors:
                    await Shard._discard(executor)
                raise
            return [
                Shard(
                    index,
                    executor,
                    max_depth,
                    max_batch,
                    stats_window,
                    executor_factory=factory,
                    journal=MutationJournal(compact_threshold=compact_threshold),
                    backoff=BackoffPolicy(
                        base_ms=backoff_ms, max_ms=max_backoff_ms
                    ),
                    breaker=CircuitBreaker(
                        max_restarts=max_restarts, window_seconds=restart_window
                    ),
                )
                for index, executor in enumerate(executors)
            ]

        try:
            self.shards = asyncio.run_coroutine_threadsafe(
                start(), shard_loop
            ).result()
        except BaseException:
            self._stop_loops()
            raise
        self.corpus = None
        self._corpus_worker: Optional[ThreadPoolExecutor] = None
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
            self._corpus_worker = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-corpus-serve"
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

    def run(self, coroutine: Awaitable[Any]) -> Any:
        """Run ``coroutine`` on the scheduler's loop; block for its result.

        For threads other than the loop's (which would deadlock here).
        """
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result()

    def submit(self, request: Any) -> "Future[Response]":
        """Enqueue one request from any thread; the future resolves to
        its response.

        A request naming a session goes straight onto its shard's queue;
        anything else is routed on the loop.
        """
        return self._submit(request, serve_here=False)

    def _submit(self, request: Any, serve_here: bool) -> "Future[Response]":
        future: "Future[Response]" = Future()
        future.set_running_or_notify_cancel()
        shard = self._session_shard(request)
        with self._transit_lock:
            direct = shard is not None and not self._in_transit
            if not direct:
                self._in_transit += 1
        if direct:
            shard.submit(request, future, serve_here)
            return future
        try:
            self.loop.call_soon_threadsafe(self._relay, request, future)
        except RuntimeError:  # the loop is closed
            with self._transit_lock:
                self._in_transit -= 1
            future.set_result(
                _error_response(
                    request,
                    "shutting down: the scheduler no longer accepts requests",
                    overloaded=True,
                )
            )
        return future

    def _relay(self, request: Any, future: "Future[Response]") -> None:
        try:
            answer = self.dispatch(request)
        except Exception as error:  # noqa: BLE001 — raised to the caller
            future.set_exception(error)
            return
        finally:
            with self._transit_lock:
                self._in_transit -= 1
        answer.add_done_callback(lambda done: future.set_result(done.result()))

    def _session_shard(self, request: Any) -> Optional[Shard]:
        """The shard queue ``request`` goes onto as it is, or None when
        it needs routing: no session, a malformed one, or a command the
        scheduler answers itself."""
        if not isinstance(request, dict):
            return None
        cmd = request.get("cmd")
        if cmd in ("health", "ready") or (
            isinstance(cmd, str) and cmd.startswith("corpus-")
        ):
            return None
        try:
            session = session_of(request)
        except ProtocolError:
            return None
        return None if session is None else self.shards[self.shard_of(session)]

    def _ask(self, shard: Shard, request: Any) -> "asyncio.Future[Response]":
        future: "asyncio.Future[Response]" = self.loop.create_future()
        shard.submit(request, future)
        return future

    def handle(self, request: Any) -> Response:
        """Blocking dispatch — the Dispatcher-compatible entry point.

        Since the caller waits anyway, an idle in-process shard serves
        the request on the calling thread.
        """
        return self._submit(request, serve_here=True).result()

    def dispatch(self, request: Any) -> "asyncio.Future[Response]":
        """Route one request; call on :attr:`loop`.

        The returned future always resolves to a response (an error
        response when something failed), never to an exception.
        """
        shard = self._session_shard(request)
        if shard is not None:
            return self._ask(shard, request)
        cmd = request.get("cmd") if isinstance(request, dict) else None
        if isinstance(cmd, str) and cmd.startswith("corpus-"):
            # Served parent-side, like health/ready: corpus state (the
            # registry, journals, jobs) is owned by this process, and
            # only the per-document parse work is routed to shards.  Off
            # the loop: a ``corpus-parse`` with ``wait`` blocks until its
            # job, whose parses need this loop, is done.
            if self.corpus is None:
                return _answered(
                    _error_response(
                        request,
                        f"{cmd!r} needs a corpus root — start the "
                        f"service with --corpus-root DIR",
                    )
                )
            return self.loop.run_in_executor(
                self._corpus_worker, self.corpus.serve, request
            )
        if cmd in ("health", "ready"):
            # Answered here without touching any shard queue: a wedged
            # or restarting shard must never block the probe that exists
            # to report exactly that condition.
            return _answered(
                self.health_response()
                if cmd == "health"
                else self.ready_response()
            )
        try:
            if isinstance(request, dict):
                session_of(request)
        except ProtocolError as error:
            return _answered(_error_response(request, str(error)))
        if cmd == "restore":
            return _answered(
                _error_response(
                    request,
                    "'restore' under a sharded scheduler needs a 'session' "
                    "field (or a snapshot payload naming one) to route by",
                )
            )
        # Queued now, merged later: a request submitted after this one
        # cannot overtake it on a shard queue.
        export = cmd == "metrics-export" and self.mode == "process"
        inner = request
        if export:
            # Children hold the session registries; ask every one for a
            # JSON snapshot (whatever format the caller wants — the
            # parent renders), merge, then fold in the parent's own
            # registry (shard queues/latency live here).
            inner = dict(request)
            inner["format"] = "json"
            inner.pop("trace", None)
        broadcast = export or (cmd in GLOBAL_COMMANDS and len(self.shards) > 1)
        if broadcast:
            parts = [self._ask(shard, dict(inner)) for shard in self.shards]
        else:
            parts = [self._ask(self.shards[0], request)]
        return self.loop.create_task(
            self._global(request, cmd, parts, broadcast, export)
        )

    async def _global(
        self,
        request: Any,
        cmd: Any,
        parts: List["asyncio.Future[Response]"],
        broadcast: bool,
        export: bool,
    ) -> Response:
        """A request naming no session: shard 0's answer, or every
        shard's, merged."""
        try:
            answers = list(await asyncio.gather(*parts))
            if broadcast:
                response = merge_global(request, answers)
            else:
                response = answers[0]
            if export:
                return self._finish_metrics_export(request, response)
            if (
                cmd == "metrics"
                and "session" not in request
                and "error" not in response
            ):
                response = dict(response)
                response["scheduler"] = self.metrics()
            return response
        except Exception as error:  # noqa: BLE001 — server boundary
            return _error_response(request, f"{type(error).__name__}: {error}")

    def _finish_metrics_export(
        self, request: Request, response: Response
    ) -> Response:
        """Parent-side half of a process-mode ``metrics-export``.

        Folds the parent registry (shard latency histograms, scheduler
        counters) into the merged child snapshots, recomputes the global
        laziness ratio (child fractions must not be summed), and renders
        the caller's requested format.
        """
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
        closed = self._drained is not None
        response: Response = {
            "cmd": "ready",
            "ready": not closed and not degraded,
            "time": round(time.perf_counter() - started, 6),
        }
        if degraded:
            response["degraded_shards"] = degraded
        if closed:
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

    async def drain(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful drain on the loop: stop intake, serve the queues,
        close every executor.  Idempotent; later callers wait for the
        first drain."""
        if self._drained is None:
            self._drained = self.loop.create_task(self._drain(timeout))
        await asyncio.shield(self._drained)

    async def _drain(self, timeout: Optional[float]) -> None:
        if self.corpus is not None:
            # Before the shards: parked jobs still submit to them, and a
            # job's in-flight documents should journal before the drain.
            # Not behind a waited corpus-parse: stopping its job ends it.
            await self.loop.run_in_executor(None, self.corpus.close)
            self._corpus_worker.shutdown(wait=False)
        for shard in self.shards:
            shard.close()
        for shard in self.shards:
            # A shard that fails to drain within ``timeout`` (a wedged
            # child process) is killed; its queued requests resolve with
            # shard-failure errors rather than hanging their clients.
            if not await shard.wait_closed(timeout):
                shard.kill()
                await shard.wait_closed(timeout)

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """:meth:`drain`, then stop and close the loops.  Idempotent."""
        if self.loop.is_closed():
            return
        try:
            self.run(self.drain(timeout))
        finally:
            self._stop_loops()

    def _stop_loops(self) -> None:
        for loop, thread in self._loops:
            loop.call_soon_threadsafe(loop.stop)
            thread.join()
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Scheduler({len(self.shards)} {self.mode} shard"
            f"{'s' if len(self.shards) != 1 else ''})"
        )
