"""The serve loop (line-delimited JSON over stdio) and the batch runner.

``serve`` is intentionally transport-minimal: it reads lines from any
file-like object, decodes the request(s) on each line, and writes one
response line per request, flushing after every write so a driving process
(editor, test harness, ``echo | python -m repro serve``) sees answers
immediately.

The ``dispatcher`` argument accepts anything with the
``handle(request) -> response`` contract — the single-threaded
:class:`~repro.service.dispatcher.Dispatcher` or the sharded
:class:`~repro.service.scheduler.Scheduler`.  The TCP front end
(:mod:`repro.service.net`) and the process-shard children reuse the same
core and the same :func:`decode_line` framing, so stdin, TCP, pipes and
tests all speak one protocol.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple

from .dispatcher import Dispatcher
from .protocol import ProtocolError, encode, iter_requests


def decode_line(line: str) -> Tuple[List[Dict[str, Any]], Optional[str]]:
    """``(requests, error)`` for one physical input line.

    Blank lines and ``#`` comments decode to no requests; bad JSON decodes
    to an error string the caller reports as an error response.  Shared by
    the stdio loop, the batch runner, and the TCP front end.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return [], None
    try:
        return list(iter_requests(stripped)), None
    except ProtocolError as error:
        return [], str(error)


def serve(
    input_stream: IO[str],
    output_stream: IO[str],
    dispatcher: Optional[Any] = None,
) -> int:
    """Answer requests from ``input_stream`` until EOF; returns 0."""
    dispatcher = dispatcher if dispatcher is not None else Dispatcher()
    try:
        for line in input_stream:
            requests, error = decode_line(line)
            if error is not None:
                output_stream.write(encode({"error": error, "time": 0.0}) + "\n")
                output_stream.flush()
                continue
            for request in requests:
                response = dispatcher.handle(request)
                output_stream.write(encode(response) + "\n")
                output_stream.flush()
    except BrokenPipeError:
        # The reader went away (e.g. `... | head`); that ends the
        # session, it is not an error.
        pass
    return 0


#: In-flight bound of the pipelined batch runner: enough to keep every
#: shard's batches full, small enough never to trip the
#: per-shard queue bound (default depth 256) on a single-tenant run.
BATCH_WINDOW = 64


def run_batch(
    lines: Iterable[str],
    dispatcher: Optional[Any] = None,
    window: int = BATCH_WINDOW,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Serve every request in ``lines``; returns (responses, summary).

    A plain dispatcher serves the requests one at a time.  When
    ``dispatcher`` exposes the scheduler's non-blocking ``submit``
    contract, requests are pipelined through it under a bounded in-flight
    ``window`` instead — so ``repro batch`` gets shard concurrency,
    per-shard batching, and (in process mode) real CPU parallelism, while
    responses still come back in request order.  The answers equal the
    serial runner's, ``time`` aside: shards drain their queues FIFO and
    sessions are shard-pinned, so two requests naming the same session
    execute in submission order, and a repeat is answered by the same
    result cache (``benchmarks/answer_hash.py`` checks this).

    The summary reports what a throughput run cares about: request count,
    error count, total service time (sum of per-request ``time``), wall
    time, and the result-cache stats when the handler has an in-process
    workspace.
    """
    dispatcher = dispatcher if dispatcher is not None else Dispatcher()
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    started = time.perf_counter()
    responses: List[Dict[str, Any]] = []
    errors = 0
    submit = getattr(dispatcher, "submit", None)
    in_flight: deque = deque()

    def drain(limit: int) -> None:
        nonlocal errors
        while len(in_flight) > limit:
            slot, future = in_flight.popleft()
            response = future.result()
            responses[slot] = response
            errors += "error" in response

    for line in lines:
        requests, error = decode_line(line)
        if error is not None:
            responses.append({"error": error, "time": 0.0})
            errors += 1
            continue
        for request in requests:
            if submit is None:
                response = dispatcher.handle(request)
                responses.append(response)
                errors += "error" in response
            else:
                responses.append({})  # placeholder, filled by drain()
                in_flight.append((len(responses) - 1, submit(request)))
                drain(window - 1)
    drain(0)
    wall = time.perf_counter() - started
    total_time = sum(r.get("time", 0.0) for r in responses)
    # A process-mode Scheduler has no parent-side workspace; its cache
    # stats live in the shard children (ask via the metrics command).
    workspace = getattr(dispatcher, "workspace", None)
    summary = {
        "requests": len(responses),
        "errors": errors,
        "seconds": round(total_time, 6),
        "wall_seconds": round(wall, 6),
        "pipelined": submit is not None,
        "requests_per_second": (
            round(len(responses) / total_time, 1) if total_time else 0.0
        ),
        "cache": (
            workspace.cache.stats.snapshot() if workspace is not None else {}
        ),
    }
    return responses, summary
