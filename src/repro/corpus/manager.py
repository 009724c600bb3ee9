"""The corpus front door: protocol commands -> stores, jobs, queries.

One :class:`CorpusManager` owns everything under a ``--corpus-root``
directory: the registry of named corpora, each corpus's document store,
hash-consed result store and parse journal, at most one live
:class:`~repro.corpus.pipeline.ParseJob` per corpus, and the shared
:class:`~repro.corpus.query.QueryEngine`.

It is deliberately placed *beside* the routing layer, not inside a
shard: corpus state is process-global (the scheduler intercepts
``corpus-*`` commands parent-side exactly like ``health``/``ready``),
while the actual parse work still flows through the ordinary shard
queues as ``parse`` requests — the manager needs only a ``submit``
callable and never touches a grammar itself.

Worker sessions are named ``corpus:<name>:<i>`` and *probed* against the
router until every shard owns one, so a batch job genuinely fans out
across the whole pool; they are opened with ``force`` through the normal
``open`` command, which in process mode lands them in the shard's
mutation journal — a crashed shard replays its corpus worker session
before serving the job's next parse.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import obs
from ..service.protocol import ProtocolError, ServiceError, flag_of, require, sorts_of
from ..service.retry import call_with_retries
from .pipeline import ParseJob
from .query import DEFAULT_PAGE_SIZE, QueryEngine
from .registry import CorpusRegistry
from .store import DocumentStore, ParseJournal, ResultStore

#: The protocol v6 corpus commands, in documentation order.
CORPUS_COMMANDS = (
    "corpus-create",
    "corpus-ingest",
    "corpus-parse",
    "corpus-status",
    "corpus-query",
    "corpus-info",
)

#: Probe bound for router-aware worker-session placement.
_PLACEMENT_PROBES = 4096

Submit = Callable[[Dict[str, Any]], "Future[Dict[str, Any]]"]

_INGESTED = obs.counter("repro.corpus.docs_ingested")
_INGEST_DUPLICATES = obs.counter("repro.corpus.ingest_duplicates")
_INGEST_SECONDS = obs.histogram("repro.corpus.ingest.seconds")
_QUERY_SECONDS = obs.histogram("repro.corpus.query.seconds")


class CorpusManager:
    """Serves the ``corpus-*`` commands over one corpus root."""

    def __init__(
        self,
        root: str,
        submit: Submit,
        shard_count: int = 1,
        shard_of: Optional[Callable[[str], int]] = None,
        query_cache_capacity: int = 256,
        window: Optional[int] = None,
    ) -> None:
        self.root = root
        self.submit = submit
        self.shard_count = max(1, shard_count)
        self.shard_of = shard_of
        self.window = window
        self.registry = CorpusRegistry(root)
        self.queries = QueryEngine(query_cache_capacity)
        self._stores: Dict[str, Tuple[DocumentStore, ResultStore, ParseJournal]] = {}
        self._jobs: Dict[str, ParseJob] = {}
        self._lock = threading.RLock()
        self._handler_map: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
            "corpus-create": self.create,
            "corpus-ingest": self.ingest,
            "corpus-parse": self.parse,
            "corpus-status": self.status,
            "corpus-query": self.query,
            "corpus-info": self.info,
        }
        obs.register_object_collector(self, CorpusManager._collect_metrics)

    @staticmethod
    def _collect_metrics(self: "CorpusManager"):
        for key, value in self.queries.cache.stats.snapshot().items():
            if key != "hit_rate":
                yield ("repro.corpus.query_cache." + key, None, "counter", value)
        yield ("repro.corpus.corpora", None, "gauge", len(self.registry))
        with self._lock:
            stores = dict(self._stores)
        for name, (docs, results, journal) in stores.items():
            labels = {"corpus": name}
            yield ("repro.corpus.documents", labels, "gauge", len(docs))
            yield ("repro.corpus.results", labels, "gauge", len(results))
            yield ("repro.corpus.parsed", labels, "gauge", len(journal))
            yield (
                "repro.corpus.result_dedup_hits",
                labels,
                "counter",
                results.dedup_hits,
            )

    # -- the scheduler-facing entry point ----------------------------------

    def handles(self, cmd: Any) -> bool:
        return isinstance(cmd, str) and cmd in self._handler_map

    def serve(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One corpus request -> one response, dispatcher conventions.

        Used by the scheduler's parent-side intercept, where no
        :class:`~repro.service.dispatcher.Dispatcher` wraps the call:
        errors become data, ``cmd`` is echoed, ``time`` is stamped, and
        ``"trace": true`` wraps the request in a forced root span.
        """
        started = time.perf_counter()
        cmd = request.get("cmd") if isinstance(request, dict) else None
        root = None
        try:
            handler = self._handler_map.get(cmd)  # type: ignore[arg-type]
            if handler is None:
                raise ProtocolError(f"unknown corpus command {cmd!r}")
            if flag_of(request, "trace"):
                with obs.trace("request", cmd=cmd) as root:
                    response = handler(request)
            else:
                response = handler(request)
        except (ServiceError, OSError, ValueError) as error:
            response = {"error": str(error)}
        except Exception as error:  # noqa: BLE001 — server boundary
            response = {"error": f"{type(error).__name__}: {error}"}
        if root is not None:
            response["trace"] = root.to_dict()
        if isinstance(cmd, str):
            response.setdefault("cmd", cmd)
        response["time"] = round(time.perf_counter() - started, 6)
        return response

    # -- command handlers (payload level; the wrapper stamps time) ---------

    def create(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = self._name_of(request)
        grammar = require(request, "grammar")
        if not isinstance(grammar, str) or not grammar.strip():
            raise ProtocolError(
                "'corpus-create' needs the corpus grammar as a non-empty "
                "string in the 'grammar' field"
            )
        engine = request.get("engine")
        if engine is not None:
            from ..api import engines

            if engine not in engines():
                raise ProtocolError(
                    f"unknown engine {engine!r} — known: {', '.join(engines())}"
                )
        entry = self.registry.create(
            name, grammar, sorts=sorts_of(request), engine=engine
        )
        obs.counter("repro.corpus.requests", cmd="corpus-create").inc()
        return {"corpus": name, "created": entry["created"]}

    def ingest(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = self._name_of(request)
        self._definition_of(name)
        documents = self._gather_documents(request)
        docs, _results, _journal = self._stores_of(name)
        with obs.span("corpus.ingest", corpus=name, documents=len(documents)):
            started = time.perf_counter()
            outcome = docs.add_many(documents)
            _INGEST_SECONDS.observe(time.perf_counter() - started)
        _INGESTED.inc(outcome["added"])
        _INGEST_DUPLICATES.inc(outcome["duplicates"])
        obs.counter("repro.corpus.requests", cmd="corpus-ingest").inc()
        return {
            "corpus": name,
            "added": outcome["added"],
            "duplicates": outcome["duplicates"],
            "documents": len(docs),
        }

    def parse(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = self._name_of(request)
        entry = self._definition_of(name)
        docs, results, journal = self._stores_of(name)
        wait = flag_of(request, "wait")
        obs.counter("repro.corpus.requests", cmd="corpus-parse").inc()
        with self._lock:
            job = self._jobs.get(name)
            if job is None or not (job.running or job.state == "pending"):
                sessions = self._open_worker_sessions(name, entry)
                window = request.get("window", self.window)
                if window is not None and (
                    not isinstance(window, int)
                    or isinstance(window, bool)
                    or window < 1
                ):
                    raise ProtocolError(
                        f"'window' must be a positive integer, got {window!r}"
                    )
                job = ParseJob(
                    name,
                    docs,
                    results,
                    journal,
                    submit=self.submit,
                    sessions=sessions,
                    engine=entry.get("engine"),
                    window=window,
                )
                obs.counter("repro.corpus.jobs_started", corpus=name).inc()
                job.start()
                self._jobs[name] = job
        if wait:
            timeout = request.get("timeout")
            if timeout is not None and not isinstance(timeout, (int, float)):
                raise ProtocolError(
                    f"'timeout' must be a number of seconds, got {timeout!r}"
                )
            job.wait(timeout)
        return {"corpus": name, "job": job.status()}

    def status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = self._name_of(request)
        self._definition_of(name)
        docs, results, journal = self._stores_of(name)
        with self._lock:
            job = self._jobs.get(name)
        response: Dict[str, Any] = {
            "corpus": name,
            "documents": len(docs),
            "parsed": len(journal),
            "pending": max(0, len(docs) - len(journal)),
            "generation": journal.generation,
            "store": {
                "results": len(results),
                "result_puts": results.puts,
                "dedup_hits": results.dedup_hits,
                "dedup_ratio": round(results.dedup_ratio(), 4),
            },
            "journal": {
                "entries": len(journal),
                "duplicates": journal.duplicates,
                "torn_tail": journal.torn_tail,
            },
        }
        if job is not None:
            response["job"] = job.status()
        obs.counter("repro.corpus.requests", cmd="corpus-status").inc()
        return response

    def query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = self._name_of(request)
        self._definition_of(name)
        docs, results, journal = self._stores_of(name)
        kind = require(request, "kind")
        params = request.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be a JSON object")
        # Korp-style convenience: a top-level 'nonterminal' field is the
        # common case for match queries.
        if "nonterminal" in request and "nonterminal" not in params:
            params = dict(params, nonterminal=request["nonterminal"])
        use_cache = flag_of(request, "cache", True)
        with obs.span("corpus.query", corpus=name, kind=str(kind)):
            started = time.perf_counter()
            response = self.queries.query(
                name,
                docs,
                results,
                journal,
                kind,
                params=params,
                page=request.get("page", 0),
                page_size=request.get("page_size", DEFAULT_PAGE_SIZE),
                use_cache=use_cache,
            )
            _QUERY_SECONDS.observe(time.perf_counter() - started)
        obs.counter(
            "repro.corpus.queries", kind=kind if isinstance(kind, str) else "?"
        ).inc()
        return response

    def info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        obs.counter("repro.corpus.requests", cmd="corpus-info").inc()
        if "corpus" not in request and "session" not in request:
            # The Korp ``/info`` shape: every registered corpus.
            return {"corpora": self.registry.names(), "root": self.root}
        name = self._name_of(request)
        entry = self._definition_of(name)
        docs, results, journal = self._stores_of(name)
        return {
            "corpus": name,
            "grammar": entry["grammar"],
            "sorts": entry["sorts"],
            "engine": entry["engine"],
            "documents": len(docs),
            "parsed": len(journal),
            "results": len(results),
            "generation": journal.generation,
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop every job (in-flight parses still journal), sync journals."""
        with self._lock:
            jobs = list(self._jobs.values())
            stores = list(self._stores.values())
        for job in jobs:
            job.stop()
        for _docs, _results, journal in stores:
            journal.close()
        with self._lock:
            self._stores.clear()

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _name_of(request: Dict[str, Any]) -> str:
        name = request.get("corpus", request.get("session"))
        if not isinstance(name, str) or not name:
            cmd = request.get("cmd", "?")
            raise ProtocolError(
                f"{cmd!r} request needs a corpus name in the 'corpus' field"
            )
        return name

    def _definition_of(self, name: str) -> Dict[str, Any]:
        entry = self.registry.get(name)
        if entry is None:
            known = ", ".join(self.registry.names()) or "<none>"
            raise ServiceError(
                f"unknown corpus {name!r} — 'corpus-create' it first "
                f"(known: {known})"
            )
        return entry

    def _stores_of(
        self, name: str
    ) -> Tuple[DocumentStore, ResultStore, ParseJournal]:
        with self._lock:
            held = self._stores.get(name)
            if held is None:
                directory = self.registry.directory(name)
                held = (
                    DocumentStore(directory),
                    ResultStore(directory),
                    ParseJournal(os.path.join(directory, "parse.log")),
                )
                self._stores[name] = held
            return held

    def _gather_documents(
        self, request: Dict[str, Any]
    ) -> List[Tuple[str, str]]:
        """The ``(name, text)`` pairs of one ingest request.

        Three sources, combinable: inline ``documents`` (strings or
        ``{"name", "text"}`` objects), ``files`` (paths), and a
        ``manifest`` directory (every regular file under it, recursively,
        named by its relative path — deterministic order).
        """
        documents: List[Tuple[str, str]] = []
        inline = request.get("documents", ())
        if not isinstance(inline, (list, tuple)):
            raise ProtocolError("'documents' must be a list")
        for index, item in enumerate(inline):
            if isinstance(item, str):
                documents.append((f"inline-{index}", item))
            elif (
                isinstance(item, dict)
                and isinstance(item.get("text"), str)
            ):
                documents.append(
                    (str(item.get("name", f"inline-{index}")), item["text"])
                )
            else:
                raise ProtocolError(
                    "'documents' entries must be strings or "
                    '{"name": ..., "text": ...} objects'
                )
        files = request.get("files", ())
        if not isinstance(files, (list, tuple)):
            raise ProtocolError("'files' must be a list of paths")
        for path in files:
            if not isinstance(path, str):
                raise ProtocolError("'files' entries must be path strings")
            with open(path, encoding="utf-8") as handle:
                documents.append((os.path.basename(path), handle.read()))
        manifest = request.get("manifest")
        if manifest is not None:
            if not isinstance(manifest, str):
                raise ProtocolError("'manifest' must be a directory path")
            if not os.path.isdir(manifest):
                raise ServiceError(
                    f"manifest directory {manifest!r} does not exist"
                )
            for dirpath, dirnames, filenames in sorted(os.walk(manifest)):
                dirnames.sort()
                for filename in sorted(filenames):
                    full = os.path.join(dirpath, filename)
                    relative = os.path.relpath(full, manifest)
                    with open(full, encoding="utf-8") as handle:
                        documents.append((relative, handle.read()))
        if not documents:
            raise ProtocolError(
                "'corpus-ingest' got nothing to ingest — pass 'documents', "
                "'files', or a 'manifest' directory"
            )
        return documents

    def _open_worker_sessions(
        self, name: str, entry: Dict[str, Any]
    ) -> List[str]:
        """One journaled worker session per shard, router-verified."""
        placed: Dict[int, str] = {}
        if self.shard_of is None or self.shard_count == 1:
            placed[0] = f"corpus:{name}:0"
        else:
            for probe in range(_PLACEMENT_PROBES):
                candidate = f"corpus:{name}:{probe}"
                shard = self.shard_of(candidate)
                if shard not in placed:
                    placed[shard] = candidate
                    if len(placed) == self.shard_count:
                        break
        sessions = [placed[shard] for shard in sorted(placed)]
        for session in sessions:
            # Retried like any client call: a corpus-parse issued while a
            # shard is mid-recovery (the restart-resume path) must not
            # fail just because one worker open raced the respawn.
            response = call_with_retries(
                lambda req: self.submit(req).result(),
                {
                    "cmd": "open",
                    "session": session,
                    "grammar": entry["grammar"],
                    "sorts": entry["sorts"],
                    "force": True,
                },
            )
            if not isinstance(response, dict) or "error" in response:
                raise ServiceError(
                    f"could not open corpus worker session {session!r}: "
                    f"{response.get('error') if isinstance(response, dict) else response}"
                )
        return sessions
