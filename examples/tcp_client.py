"""A minimal socket client for the concurrent parse service.

Start the server::

    PYTHONPATH=src python -m repro serve --tcp 127.0.0.1:7654 --workers 4

then drive it::

    PYTHONPATH=src python examples/tcp_client.py --port 7654

The wire protocol is the same newline-delimited JSON served on stdin
(protocol v5), so anything that can open a socket is a client.  Requests
may be pipelined: responses always come back in request order on one
connection, so this client writes its whole script first and then reads
one response line per request.

Transient server conditions are retried: an ``overloaded`` answer (a
shard queue at its bound) or a ``shard-restarting`` answer (the
supervisor is respawning a crashed shard) is not a final result, so the
client re-sends those requests on a fresh connection after a jittered
backoff, honoring the server's ``retry_after_ms`` hint when present.
``shard-degraded`` is terminal and is never retried.

With no ``--requests FILE`` a small demo script runs: open a session,
parse twice (the second answer comes from the result cache, with
``"cache": true``), edit the grammar, parse again.
"""

from __future__ import annotations

import argparse
import json
import random
import socket
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

DEMO = [
    {"cmd": "open", "session": "demo",
     "grammar": "START ::= B\nB ::= true\nB ::= false\nB ::= B or B"},
    {"cmd": "parse", "session": "demo", "tokens": "true or false"},
    {"cmd": "parse", "session": "demo", "tokens": "true or false"},
    {"cmd": "add-rule", "session": "demo", "rule": "B ::= maybe"},
    {"cmd": "parse", "session": "demo", "tokens": "maybe or true"},
    {"cmd": "metrics"},
]

#: Error shapes worth re-sending; anything else is a final answer.
RETRYABLE_ERRORS = ("shard-restarting",)


def is_retryable(response: Dict[str, Any]) -> bool:
    error = response.get("error")
    if not isinstance(error, str):
        return False
    return error in RETRYABLE_ERRORS or response.get("overloaded") is True


def retry_delay_ms(
    responses: List[Dict[str, Any]], attempt: int, base_ms: float = 50.0
) -> float:
    """Jittered exponential backoff, floored at the server's hint."""
    hint = max(
        (
            r.get("retry_after_ms", 0)
            for r in responses
            if isinstance(r.get("retry_after_ms"), (int, float))
        ),
        default=0.0,
    )
    ceiling = min(5_000.0, base_ms * (2**attempt))
    return float(hint) + random.uniform(0.0, ceiling)


def exchange(
    host: str, port: int, lines: List[str], timeout: float = 30.0
) -> List[Optional[Dict[str, Any]]]:
    """Pipeline ``lines`` on one connection; one response per request.

    A response slot is ``None`` when the server closed before answering
    (e.g. a connection dropped mid-pipeline) — the caller treats those
    as retryable too.
    """
    responses: List[Optional[Dict[str, Any]]] = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        for line in lines:
            stream.write(line + "\n")
        stream.flush()
        sock.shutdown(socket.SHUT_WR)  # tell the server we are done sending
        for _ in lines:
            response_line = stream.readline()
            if not response_line:
                responses.append(None)
                continue
            try:
                responses.append(json.loads(response_line))
            except json.JSONDecodeError:
                responses.append(None)  # torn frame: retry the request
    return responses


def run(
    host: str,
    port: int,
    lines: List[str],
    retries: int = 4,
    quiet: bool = False,
) -> Tuple[List[Optional[Dict[str, Any]]], int]:
    """Send every request, retrying transient failures; returns responses."""
    final: List[Optional[Dict[str, Any]]] = [None] * len(lines)
    todo = list(range(len(lines)))
    for attempt in range(retries + 1):
        try:
            answers = exchange(host, port, [lines[i] for i in todo])
        except ConnectionError:
            answers = [None] * len(todo)
        still: List[int] = []
        for index, answer in zip(todo, answers):
            final[index] = answer
            if answer is None or is_retryable(answer):
                still.append(index)
        if not still or attempt == retries:
            break
        got = [a for a in answers if isinstance(a, dict)]
        delay_ms = retry_delay_ms(got, attempt)
        if not quiet:
            print(
                f"# retrying {len(still)} request(s) in {delay_ms:.0f}ms "
                f"(attempt {attempt + 1}/{retries})",
                file=sys.stderr,
            )
        time.sleep(delay_ms / 1000.0)
        todo = still
    retried_out = sum(
        1 for r in final if r is None or is_retryable(r)
    )
    return final, retried_out


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--requests", metavar="FILE",
        help="newline-delimited JSON requests to send instead of the demo "
        "script ('-' for stdin)",
    )
    parser.add_argument(
        "--retries", type=int, default=4, metavar="N",
        help="re-send rounds for overloaded/shard-restarting answers "
        "(default: 4)",
    )
    options = parser.parse_args(argv)

    if options.requests is None:
        lines = [json.dumps(request) for request in DEMO]
    elif options.requests == "-":
        lines = [line.strip() for line in sys.stdin if line.strip()]
    else:
        with open(options.requests) as handle:
            lines = [line.strip() for line in handle if line.strip()]

    responses, unanswered = run(
        options.host, options.port, lines, retries=options.retries
    )
    errors = 0
    for response in responses:
        if response is None:
            print("error: server closed before answering", file=sys.stderr)
            errors += 1
            continue
        print(json.dumps(response, sort_keys=True))
        errors += "error" in response
    return 1 if errors or unanswered else 0


if __name__ == "__main__":
    raise SystemExit(main())
