#!/usr/bin/env python3
"""Answer-hash check: pipelined and sharded serving answer like a serial run.

Serves the 620 non-``metrics`` requests of ``service_requests()`` (20
booleans sessions, interleaved parses, recognitions and grammar edits)
four ways and hashes the responses, each with ``time`` removed:

* ``dispatcher`` — one sequential :class:`~repro.service.Dispatcher`;
* ``scheduler`` — a sequential inline :class:`~repro.service.Scheduler`;
* ``batch-inline`` — pipelined ``run_batch`` through one inline shard;
* ``batch-2-shards`` — pipelined ``run_batch`` through
  ``Scheduler(workers=2)`` (two process shards).

Every response, ``cache`` field included, must be the same: a repeat in
a shard's batch is answered by the result cache exactly as in the
serial run.  Prints the four SHA-256 digests and exits 1 unless they
all agree::

    PYTHONPATH=src python benchmarks/answer_hash.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List

try:
    from repro.service import Dispatcher, Scheduler, run_batch
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.service import Dispatcher, Scheduler, run_batch

from repro.bench.workloads import service_requests


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


def main() -> int:
    requests = [r for r in service_requests() if r.get("cmd") != "metrics"]
    digests: Dict[str, str] = {}
    digests["dispatcher"] = digest(sequential(Dispatcher(), requests))
    with Scheduler() as scheduler:
        digests["scheduler"] = digest(sequential(scheduler, requests))
    with Scheduler() as scheduler:
        digests["batch-inline"] = digest(pipelined(scheduler, requests))
    with Scheduler(workers=2) as scheduler:
        digests["batch-2-shards"] = digest(pipelined(scheduler, requests))
    print(f"{len(requests)} responses per run")
    for name, value in digests.items():
        print(f"  {name:<16} {value}")
    if len(set(digests.values())) != 1:
        print("FAIL: the digests differ", file=sys.stderr)
        return 1
    print("PASS: every run answered alike")
    return 0


if __name__ == "__main__":
    sys.exit(main())
