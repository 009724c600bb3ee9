"""The streaming batch-parse pipeline: corpus documents across shards.

A :class:`ParseJob` drains one corpus through the service's existing
concurrency layer.  It owns no parser — every document becomes an
ordinary ``parse`` request submitted to the scheduler (or dispatcher)
through the same bounded shard queues interactive traffic uses, with
three deliberate politeness properties:

* **bounded in-flight window** — at most ``window`` documents are in
  the queues at once (default 2 per shard), so a million-document job
  cannot occupy a shard queue and starve interactive sessions: batch
  work waits *behind* the backpressure limit instead of filling it;
* **no result-cache pollution** — corpus parses send ``"cache": false``
  (protocol v6), so a bulk sweep does not evict the interactive
  sessions' hot entries, and ``"deadline_ms": null`` opts out of any
  server default deadline (a corpus document has no user waiting);
* **retry, never drop** — retryable answers (``shard-restarting``
  during a crash recovery, ``overloaded`` under pressure) re-queue the
  document under exponential backoff; only a terminal infrastructure
  error (``shard-degraded``) fails the job.

Completion is durable: each parsed document's distilled payload goes to
the hash-consed :class:`~repro.corpus.store.ResultStore` *before* the
:class:`~repro.corpus.store.ParseJournal` records the document done, so
a crash between the two re-parses the document (idempotent: the payload
is content-addressed) rather than journaling a result that was never
stored.  On restart, a re-issued ``corpus-parse`` skips everything the
journal already holds — that is the whole resume story.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Any, Callable, Dict, List, Optional

from .. import obs
from ..service.retry import is_retryable
from .store import DocumentStore, ParseJournal, ResultStore

#: In-flight documents per worker session (i.e. per shard) — small by
#: design; see the module docstring on starvation.
WINDOW_PER_SESSION = 2

#: Give up on a document (and fail the job) after this many retryable
#: answers — far beyond any single crash recovery, so hitting it means
#: the infrastructure is not coming back.
MAX_ATTEMPTS = 60

#: Backoff ceiling between retries of one document.
MAX_BACKOFF_S = 2.0

#: Nonterminal occurrences in a bracketed tree: a node is rendered as
#: ``Label(child child ...)``, so every name immediately followed by an
#: opening paren is a nonterminal label (leaves appear bare).
_NODE_LABEL = re.compile(r"([^\s()]+)\(")


def distill(response: Dict[str, Any]) -> Dict[str, Any]:
    """The stored payload of one parse response.

    Strips the per-request fields (``time``, ``cache``, ``session``,
    ``version`` …) so that two documents with identical parse *structure*
    produce identical payloads — the property hash-consing feeds on —
    and pre-computes the per-nonterminal occurrence counts the query
    layer indexes.
    """
    payload: Dict[str, Any] = {"accepted": bool(response.get("accepted"))}
    engine = response.get("engine")
    if engine is not None:
        payload["engine"] = engine
    if payload["accepted"]:
        trees = list(response.get("trees", ()))
        counts: Dict[str, int] = {}
        for tree in trees:
            for label in _NODE_LABEL.findall(tree):
                counts[label] = counts.get(label, 0) + 1
        payload["trees"] = trees
        # The forest's count: the trees are a bounded rendering of it.
        payload["tree_count"] = response.get("tree_count", len(trees))
        payload["nonterminals"] = counts
    else:
        diagnostics = response.get("diagnostics")
        if diagnostics is not None:
            payload["diagnostics"] = diagnostics
    return payload


class ParseJob:
    """One corpus drain: pending documents -> journaled results.

    Runs on its own thread so ``corpus-parse`` can answer immediately
    and ``corpus-status`` can watch progress; ``wait`` joins it.
    """

    def __init__(
        self,
        corpus: str,
        docs: DocumentStore,
        results: ResultStore,
        journal: ParseJournal,
        submit: Callable[[Dict[str, Any]], "Future[Dict[str, Any]]"],
        sessions: List[str],
        engine: Optional[str] = None,
        window: Optional[int] = None,
    ) -> None:
        if not sessions:
            raise ValueError("a parse job needs at least one worker session")
        self.corpus = corpus
        self.docs = docs
        self.results = results
        self.journal = journal
        self.submit = submit
        self.sessions = list(sessions)
        self.engine = engine
        self.window = (
            window
            if window is not None
            else WINDOW_PER_SESSION * len(self.sessions)
        )
        self.total = len(docs)
        #: Documents already journaled when this job started — the
        #: resume measurement the restart test asserts on.
        self.resumed = len(journal)
        self.parsed_this_run = 0
        self.accepted = sum(
            1 for entry in journal.entries.values() if entry.get("accepted")
        )
        self.rejected = self.resumed - self.accepted
        self.retries = 0
        self.state = "pending"
        self.error: Optional[str] = None
        self.started_at = time.monotonic()
        self.finished_at: Optional[float] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._sequence = 0
        self._obs_parsed = obs.counter("repro.corpus.docs_parsed", corpus=corpus)
        self._obs_retries = obs.counter("repro.corpus.parse_retries", corpus=corpus)
        self._obs_seconds = obs.histogram("repro.corpus.doc_parse.seconds")
        self._thread = threading.Thread(
            target=self._run, name=f"repro-corpus-{corpus}", daemon=True
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ParseJob":
        self.state = "running"
        self._thread.start()
        return self

    def wait(self, timeout: Optional[float] = None) -> bool:
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Stop draining; in-flight documents still complete and journal."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout)

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    # -- the drain loop ----------------------------------------------------

    def _run(self) -> None:
        pending = deque(
            digest for digest in self.docs.hashes() if digest not in self.journal
        )
        in_flight: Dict["Future[Dict[str, Any]]", Dict[str, Any]] = {}
        backoff_s = 0.0
        try:
            with obs.span(
                "corpus.parse-job", corpus=self.corpus, pending=len(pending)
            ):
                while (pending or in_flight) and not self._stop.is_set():
                    while pending and len(in_flight) < self.window:
                        digest = pending.popleft()
                        in_flight[self._launch(digest)] = {
                            "doc": digest,
                            "attempts": 1,
                            "started": time.perf_counter(),
                        }
                    if not in_flight:
                        break
                    done, _ = wait(
                        in_flight, timeout=1.0, return_when=FIRST_COMPLETED
                    )
                    retry_wanted = False
                    for future in done:
                        item = in_flight.pop(future)
                        verdict = self._absorb(item, future.result())
                        if verdict == "retry":
                            retry_wanted = True
                            if item["attempts"] >= MAX_ATTEMPTS:
                                raise RuntimeError(
                                    f"document {item['doc']} still failing "
                                    f"after {item['attempts']} attempts"
                                )
                            item["attempts"] += 1
                            item["started"] = time.perf_counter()
                            in_flight[self._launch(item["doc"])] = item
                    if retry_wanted:
                        # Shared backoff: a restarting shard answers every
                        # window slot at once; one growing pause beats
                        # per-document sleeps that would stall absorption.
                        backoff_s = min(
                            MAX_BACKOFF_S, (backoff_s * 2) or 0.025
                        )
                        self._stop.wait(backoff_s)
                    elif done:
                        backoff_s = 0.0
                if in_flight:
                    # Stopped with documents still in the shard queues:
                    # absorb whatever completes so their work is not
                    # thrown away (a retryable answer is simply dropped —
                    # the journal-less document re-parses on resume).
                    done, _ = wait(in_flight, timeout=10.0)
                    for future in done:
                        self._absorb(in_flight.pop(future), future.result())
        except Exception as error:  # noqa: BLE001 — job boundary
            with self._lock:
                self.state = "failed"
                self.error = f"{type(error).__name__}: {error}"
        else:
            with self._lock:
                self.state = "stopped" if self._stop.is_set() else "done"
        finally:
            self.finished_at = time.monotonic()
            self.journal.sync()

    def _launch(self, digest: str) -> "Future[Dict[str, Any]]":
        entry = self.docs.get(digest)
        assert entry is not None
        session = self.sessions[self._sequence % len(self.sessions)]
        self._sequence += 1
        request: Dict[str, Any] = {
            "cmd": "parse",
            "session": session,
            "tokens": entry["text"],
            "cache": False,
            "deadline_ms": None,
        }
        if self.engine is not None:
            request["engine"] = self.engine
        return self.submit(request)

    def _absorb(self, item: Dict[str, Any], response: Any) -> str:
        """File one completed future; returns ``"ok"`` or ``"retry"``."""
        if not isinstance(response, dict):
            raise RuntimeError(
                f"corpus parse returned {type(response).__name__}, "
                f"expected a response object"
            )
        if is_retryable(response):
            with self._lock:
                self.retries += 1
            self._obs_retries.inc()
            return "retry"
        if "error" in response:
            # Terminal: shard-degraded, protocol errors, unknown engine.
            raise RuntimeError(
                f"document {item['doc']} failed terminally: "
                f"{response['error']}"
            )
        digest = item["doc"]
        payload = distill(response)
        # Store before journal: the journal entry is the commit point.
        result_hash, _created = self.results.put(payload)
        self.journal.append(digest, result_hash, payload["accepted"])
        self._obs_seconds.observe(time.perf_counter() - item["started"])
        self._obs_parsed.inc()
        with self._lock:
            self.parsed_this_run += 1
            if payload["accepted"]:
                self.accepted += 1
            else:
                self.rejected += 1
        return "ok"

    # -- progress ----------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        with self._lock:
            done = len(self.journal)
            elapsed = (self.finished_at or time.monotonic()) - self.started_at
            rate = self.parsed_this_run / elapsed if elapsed > 0 else 0.0
            report = {
                "state": self.state,
                "total": self.total,
                "done": done,
                "pending": max(0, self.total - done),
                "accepted": self.accepted,
                "rejected": self.rejected,
                "resumed": self.resumed,
                "parsed_this_run": self.parsed_this_run,
                "retries": self.retries,
                "elapsed": round(elapsed, 3),
                "docs_per_second": round(rate, 2),
                "sessions": list(self.sessions),
            }
            if self.error is not None:
                report["job_error"] = self.error
            return report
