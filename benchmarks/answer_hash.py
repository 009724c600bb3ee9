#!/usr/bin/env python3
"""Answer-hash check: pipelined and sharded serving answer like a serial run.

Serves one request stream five ways and hashes the responses, each with
``time`` removed:

* ``dispatcher`` — one sequential :class:`~repro.service.Dispatcher`;
* ``scheduler`` — a sequential inline :class:`~repro.service.Scheduler`;
* ``batch-inline`` — pipelined ``run_batch`` through one inline shard;
* ``batch-2-shards`` — pipelined ``run_batch`` through
  ``Scheduler(workers=2)`` (two process shards);
* ``tcp-2-shards`` — pipelined over one TCP connection to a
  ``repro serve --tcp 127.0.0.1:0 --workers 2`` subprocess, at most
  :data:`TCP_WINDOW` requests ahead of the answers.

The stream is the 620 non-``metrics`` requests of ``service_requests()``
(20 booleans sessions, interleaved parses, recognitions and grammar
edits) followed by an SDF section (:func:`sdf_requests`): tree-mode
``parse`` and ``recognize`` of the four SDF corpus inputs on the default,
``gss`` and ``lazy`` engines, then a checkpointed parse and a chain of
``edit-parse`` requests.

Every response, ``cache`` field included, must be the same: a repeat in
a shard's batch is answered by the result cache exactly as in the
serial run.  Prints the five SHA-256 digests and exits 1 unless they
all agree.  ``--expect DIGEST`` also pins the answers themselves: the
run fails unless the digests equal ``DIGEST``, so a change that alters
every answer alike fails too.  A change that alters answers on purpose
updates the pin::

    PYTHONPATH=src python benchmarks/answer_hash.py [--expect DIGEST]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

try:
    from repro.service import Dispatcher, Scheduler, run_batch
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.service import Dispatcher, Scheduler, run_batch

from repro.bench.serve import ServeProcess
from repro.bench.workloads import service_requests
from repro.lr.serialize import grammar_to_dict
from repro.sdf.corpus import corpus_tokens, sdf_grammar

#: Requests the TCP client keeps in flight: as deep as ``run_batch``'s
#: window, well under a shard's default queue bound.
TCP_WINDOW = 64

#: The session the SDF section runs in.
SDF_SESSION = "sdf"

#: The edit chain over Exam.sdf, as ``(start, end, replacement)``: an ID
#: rewritten to itself, a list entry deleted and re-inserted, and a
#: deletion the grammar rejects, then undone.
SDF_EDITS = (
    (8, 9, ["ID"]),
    (7, 9, []),
    (7, 7, [",", "ID"]),
    (2, 3, []),
    (2, 2, ["begin"]),
)


def sdf_requests() -> List[Dict[str, Any]]:
    """The SDF section of the hashed stream.

    Result ids are pure functions of the session state and the request,
    so the ids the edit chain names are learned by serving the chain once
    on a scratch dispatcher.
    """
    sdf = grammar_to_dict(sdf_grammar())
    inputs = {
        name: [token.name for token in tokens]
        for name, tokens in corpus_tokens().items()
    }
    opened = {
        "cmd": "open", "session": SDF_SESSION,
        "grammar": sdf["text"], "sorts": sdf["sorts"],
    }
    requests: List[Dict[str, Any]] = [opened]
    for tokens in inputs.values():
        for engine in (None, "gss", "lazy"):
            for cmd in ("parse", "recognize"):
                request = {"cmd": cmd, "session": SDF_SESSION, "tokens": tokens}
                if engine is not None:
                    request["engine"] = engine
                requests.append(request)
    scratch = Dispatcher()
    scratch.handle(opened)
    request = {
        "cmd": "parse", "session": SDF_SESSION,
        "tokens": inputs["Exam.sdf"], "checkpoint": True,
    }
    for start, end, replacement in SDF_EDITS:
        requests.append(request)
        request = {
            "cmd": "edit-parse", "session": SDF_SESSION,
            "base": scratch.handle(request)["result"],
            "edit": {"start": start, "end": end, "replacement": replacement},
        }
    requests.append(request)
    return requests


def digest(responses: Iterable[Dict[str, Any]]) -> str:
    """SHA-256 over each response's sorted-key JSON, ``time`` removed."""
    hasher = hashlib.sha256()
    for response in responses:
        answer = {key: value for key, value in response.items() if key != "time"}
        hasher.update(json.dumps(answer, sort_keys=True).encode("utf-8"))
    return hasher.hexdigest()


def sequential(handler: Any, requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [handler.handle(request) for request in requests]


def pipelined(scheduler: Scheduler, requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    responses, _summary = run_batch(
        (json.dumps(request) for request in requests), scheduler
    )
    return responses


def over_tcp(requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Pipeline ``requests`` over one connection to a 2-shard server."""
    with ServeProcess(workers=2) as server, server.connect() as sock:
        slots = threading.Semaphore(TCP_WINDOW)

        def send() -> None:
            for request in requests:
                slots.acquire()
                sock.sendall((json.dumps(request) + "\n").encode())

        sender = threading.Thread(target=send, daemon=True)
        sender.start()
        responses = []
        with sock.makefile("r", encoding="utf-8") as stream:
            for _ in requests:
                responses.append(json.loads(stream.readline()))
                slots.release()
        sender.join(timeout=60)
        return responses


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--expect", metavar="DIGEST",
        help="fail unless every run hashes to this SHA-256 digest",
    )
    options = parser.parse_args(argv)
    requests = [r for r in service_requests() if r.get("cmd") != "metrics"]
    requests += sdf_requests()
    digests: Dict[str, str] = {}
    digests["dispatcher"] = digest(sequential(Dispatcher(), requests))
    with Scheduler() as scheduler:
        digests["scheduler"] = digest(sequential(scheduler, requests))
    with Scheduler() as scheduler:
        digests["batch-inline"] = digest(pipelined(scheduler, requests))
    with Scheduler(workers=2) as scheduler:
        digests["batch-2-shards"] = digest(pipelined(scheduler, requests))
    digests["tcp-2-shards"] = digest(over_tcp(requests))
    print(f"{len(requests)} responses per run")
    for name, value in digests.items():
        print(f"  {name:<16} {value}")
    if len(set(digests.values())) != 1:
        print("FAIL: the digests differ", file=sys.stderr)
        return 1
    if options.expect is not None and digests["dispatcher"] != options.expect:
        print(f"FAIL: the answers changed (expected {options.expect})", file=sys.stderr)
        return 1
    print("PASS: every run answered alike")
    return 0


if __name__ == "__main__":
    sys.exit(main())
