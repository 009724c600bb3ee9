"""The request dispatcher: one JSON request in, one JSON response out.

Every response carries ``time`` (seconds spent on the request) and, for the
parse-shaped commands, ``cache`` (whether the answer came from the LRU
result cache) — the two bookkeeping fields of the Korp command API that
made its cache behaviour observable from the outside.  Errors are data,
not exceptions: a failed request produces ``{"error": ..., "time": ...}``
so one bad line never takes the serve loop down.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from .. import obs
from ..core.metrics import LatencyStats, full_table_states, states_materialized
from ..grammar.grammar import GrammarError
from ..runtime.deadline import deadline_scope
from ..runtime.errors import DeadlineExceeded, ParseError
from .protocol import (
    COMMANDS,
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceError,
    flag_of,
    require,
    sorts_of,
)
from .snapshot import (
    load_session,
    save_session,
    session_from_dict,
    session_to_dict,
)
from .workspace import Workspace

Handler = Callable[[Dict[str, Any]], Dict[str, Any]]

#: Export formats the ``metrics-export`` command understands.
EXPORT_FORMATS = ("prometheus", "json")

_REQUEST_SECONDS = obs.histogram("repro.service.request.seconds")
_ERRORS = obs.counter("repro.service.errors")
_REQUEST_COUNTERS: Dict[str, obs.Counter] = {}


def _request_counter(cmd: str) -> obs.Counter:
    counter = _REQUEST_COUNTERS.get(cmd)
    if counter is None:
        counter = _REQUEST_COUNTERS[cmd] = obs.counter(
            "repro.service.requests", cmd=cmd
        )
    return counter


class Dispatcher:
    """Serves the protocol of :mod:`repro.service.protocol` over a workspace."""

    def __init__(
        self,
        workspace: Optional[Workspace] = None,
        cache_capacity: int = 1024,
        clock: Callable[[], float] = time.perf_counter,
        default_deadline_ms: Optional[float] = None,
        corpus_root: Optional[str] = None,
    ) -> None:
        self.workspace = workspace if workspace is not None else Workspace(cache_capacity)
        self.stats = LatencyStats()
        self.default_deadline_ms = default_deadline_ms
        self._clock = clock
        self.corpus = None
        if corpus_root is not None:
            # Imported lazily: repro.corpus sits above this module in the
            # layering (it submits ordinary parse requests back through
            # the service), so a module-level import would be a cycle.
            from ..corpus.manager import CorpusManager

            def _inline_submit(request: Dict[str, Any]):
                from concurrent.futures import Future

                future: "Future[Dict[str, Any]]" = Future()
                future.set_result(self.handle(request))
                return future

            self.corpus = CorpusManager(corpus_root, submit=_inline_submit)
        self._handler_map = self._handlers()

    def close(self) -> None:
        """Stop corpus jobs and close their journals.  Idempotent."""
        if self.corpus is not None:
            self.corpus.close()

    # -- the entry point ---------------------------------------------------

    def handle(self, request: Any) -> Dict[str, Any]:
        """Serve one request; always returns a response with ``time``.

        A request carrying ``"trace": true`` is served inside a forced
        root span; the finished span tree rides back in the response's
        ``trace`` field (its duration is necessarily within ``time``,
        which also covers the bookkeeping around the span).
        """
        started = self._clock()
        cmd = request.get("cmd") if isinstance(request, dict) else None
        root = None
        try:
            deadline_ms = self._deadline_of(request)
            with deadline_scope(deadline_ms):
                if isinstance(request, dict) and flag_of(request, "trace"):
                    with obs.trace(
                        "request", cmd=cmd if isinstance(cmd, str) else "?"
                    ) as root:
                        response = self._dispatch(request, cmd)
                else:
                    response = self._dispatch(request, cmd)
        except DeadlineExceeded as error:
            # Caught before the broad handlers so a deadline can never be
            # misreported as an ordinary parse failure: the input was not
            # rejected, the budget ran out.
            response = {"error": "deadline-exceeded", "detail": str(error)}
            if error.deadline_ms is not None:
                response["deadline_ms"] = error.deadline_ms
            if error.tokens_consumed is not None:
                response["tokens_consumed"] = error.tokens_consumed
            obs.counter("repro.service.deadline_exceeded").inc()
        except (ServiceError, GrammarError, ParseError, OSError) as error:
            response = {"error": str(error)}
        except Exception as error:  # noqa: BLE001 — server boundary
            # One malformed request (wrong field types, corrupt payloads)
            # must never take down the loop and every other session's
            # state; unexpected types are named so bugs stay diagnosable.
            response = {"error": f"{type(error).__name__}: {error}"}
        if root is not None:
            response["trace"] = root.to_dict()
        if cmd is not None:
            response.setdefault("cmd", cmd)
        if isinstance(request, dict) and "session" in request:
            response.setdefault("session", request["session"])
        elapsed = self._clock() - started
        response["time"] = round(elapsed, 6)
        key = cmd if isinstance(cmd, str) else "<invalid>"
        self.stats.record(key, elapsed)
        _request_counter(key).inc()
        _REQUEST_SECONDS.observe(elapsed)
        if "error" in response:
            _ERRORS.inc()
        return response

    def _deadline_of(self, request: Any) -> Optional[float]:
        """The effective wall-clock budget: request field or server default."""
        if not isinstance(request, dict) or "deadline_ms" not in request:
            return self.default_deadline_ms
        value = request["deadline_ms"]
        if value is None:
            # Explicit null opts out of the server default.
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(
                f"'deadline_ms' must be a number of milliseconds, got "
                f"{type(value).__name__}"
            )
        if value <= 0:
            raise ProtocolError(
                f"'deadline_ms' must be positive, got {value}"
            )
        return float(value)

    def _dispatch(self, request: Any, cmd: Any) -> Dict[str, Any]:
        if not isinstance(request, dict):
            raise ProtocolError(
                f"requests must be JSON objects, got {type(request).__name__}"
            )
        if not isinstance(cmd, str):
            raise ProtocolError("request is missing the 'cmd' field")
        handler = self._handler_map.get(cmd)
        if handler is None:
            raise ProtocolError(
                f"unknown command {cmd!r} — known: {', '.join(COMMANDS)}"
            )
        return handler(request)

    def _handlers(self) -> Dict[str, Handler]:
        return {
            "open": self._open,
            "close": self._close,
            "add-rule": self._add_rule,
            "delete-rule": self._delete_rule,
            "parse": self._parse,
            "edit-parse": self._edit_parse,
            "recognize": self._recognize,
            "batch-parse": self._batch_parse,
            "snapshot": self._snapshot,
            "restore": self._restore,
            "metrics": self._metrics,
            "metrics-export": self._metrics_export,
            "info": self._info,
            "sessions": self._sessions,
            "health": self._health,
            "ready": self._ready,
            "corpus-create": self._corpus("create"),
            "corpus-ingest": self._corpus("ingest"),
            "corpus-parse": self._corpus("parse"),
            "corpus-status": self._corpus("status"),
            "corpus-query": self._corpus("query"),
            "corpus-info": self._corpus("info"),
        }

    def _corpus(self, method: str) -> Handler:
        """A corpus command handler, or a helpful refusal without a root."""

        def handler(request: Dict[str, Any]) -> Dict[str, Any]:
            if self.corpus is None:
                raise ProtocolError(
                    f"{request.get('cmd')!r} needs a corpus root — start "
                    f"the service with --corpus-root DIR"
                )
            return getattr(self.corpus, method)(request)

        return handler

    # -- session lifecycle -------------------------------------------------

    def _open(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = require(request, "session")
        grammar = request.get("grammar", "")
        if not isinstance(grammar, str):
            raise ProtocolError("'open' needs the grammar text as a string")
        session = self.workspace.open(
            name,
            grammar_text=grammar,
            sorts=sorts_of(request),
            force=flag_of(request, "force"),
        )
        return {
            "opened": name,
            "rules": len(session.language.grammar),
            "version": session.version,
        }

    def _close(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = require(request, "session")
        return {"closed": self.workspace.close(name)}

    def _sessions(self, _request: Dict[str, Any]) -> Dict[str, Any]:
        return {"sessions": list(self.workspace.names())}

    # -- grammar modification ----------------------------------------------

    def _add_rule(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self.workspace.get(require(request, "session"))
        added = session.add_rule(
            require(request, "rule"), sorts=sorts_of(request)
        )
        return {"added": added, "version": session.version}

    def _delete_rule(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self.workspace.get(require(request, "session"))
        deleted = session.delete_rule(
            require(request, "rule"), sorts=sorts_of(request)
        )
        return {"deleted": deleted, "version": session.version}

    # -- parsing -----------------------------------------------------------

    @staticmethod
    def _engine_of(request: Dict[str, Any]) -> Optional[str]:
        """The validated ``engine`` field, or None for the session default."""
        engine = request.get("engine")
        if engine is None:
            return None
        from ..api import engines

        if engine not in engines():
            raise ProtocolError(
                f"unknown engine {engine!r} — known: {', '.join(engines())}"
            )
        return engine

    @staticmethod
    def _max_trees_of(request: Dict[str, Any]) -> Optional[int]:
        """The validated v7 ``max_trees`` bound, or None for unbounded."""
        value = request.get("max_trees")
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ProtocolError(
                f"'max_trees' must be a positive integer, got {value!r}"
            )
        return value

    def _parse(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = require(request, "session")
        payload, cached = self.workspace.parse(
            name,
            require(request, "tokens"),
            engine=self._engine_of(request),
            checkpoint=flag_of(request, "checkpoint"),
            use_cache=flag_of(request, "cache", True),
            max_trees=self._max_trees_of(request),
        )
        return self._parse_response(name, payload, cached)

    def _edit_parse(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Incremental re-parse of a retained result after a splice edit."""
        name = require(request, "session")
        base = require(request, "base")
        edit = require(request, "edit")
        if not isinstance(base, str):
            raise ProtocolError(
                "'edit-parse' wants a result id string in the 'base' field"
            )
        if not isinstance(edit, dict):
            raise ProtocolError(
                "'edit-parse' wants an object in the 'edit' field: "
                '{"start": N, "end": N, "replacement": "tok tok ..."}'
            )
        start = edit.get("start")
        end = edit.get("end")
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in (start, end)):
            raise ProtocolError(
                "'edit-parse' needs integer 'start' and 'end' in the edit"
            )
        replacement = edit.get("replacement", "")
        if not isinstance(replacement, (str, list)):
            raise ProtocolError(
                "'edit-parse' wants the edit 'replacement' as a string or "
                "a list of token names"
            )
        payload, cached = self.workspace.edit_parse(
            name,
            base,
            start,
            end,
            replacement,
            engine=self._engine_of(request),
            max_trees=self._max_trees_of(request),
        )
        return self._parse_response(name, payload, cached)

    def _parse_response(
        self, name: str, payload: Dict[str, Any], cached: bool
    ) -> Dict[str, Any]:
        obs.annotate(cache=cached)
        response = dict(payload)
        if "trees" in payload:
            # Absent for recognition-mode results (checkpointed recognize
            # and edit-parse over a recognition base).  ``tree_count``
            # counts the whole packed forest (v7 ``ambiguity``), which may
            # exceed the enumerated ``trees`` under a ``max_trees`` bound.
            response["trees"] = list(payload["trees"])
            ambiguity = payload.get("ambiguity")
            response["tree_count"] = (
                ambiguity["tree_count"]
                if ambiguity is not None
                else len(payload["trees"])
            )
        response["cache"] = cached
        response["version"] = self.workspace.get(name).version
        return response

    def _recognize(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = require(request, "session")
        payload, cached = self.workspace.recognize(
            name,
            require(request, "tokens"),
            engine=self._engine_of(request),
            checkpoint=flag_of(request, "checkpoint"),
            use_cache=flag_of(request, "cache", True),
        )
        obs.annotate(cache=cached)
        response = dict(payload)
        response["cache"] = cached
        response["version"] = self.workspace.get(name).version
        return response

    def _batch_parse(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = require(request, "session")
        inputs = require(request, "inputs")
        if not isinstance(inputs, (list, tuple)):
            raise ProtocolError("'batch-parse' needs a list in the 'inputs' field")
        engine = self._engine_of(request)
        max_trees = self._max_trees_of(request)
        results = []
        hits = 0
        for tokens in inputs:
            payload, cached = self.workspace.parse(
                name, tokens, engine=engine, max_trees=max_trees
            )
            hits += cached
            ambiguity = payload.get("ambiguity")
            result = {
                "tokens": tokens,
                "accepted": payload["accepted"],
                "tree_count": (
                    ambiguity["tree_count"]
                    if ambiguity is not None
                    else len(payload["trees"])
                ),
                "cache": cached,
            }
            if ambiguity is not None:
                result["ambiguity"] = ambiguity
            if "diagnostics" in payload:
                result["diagnostics"] = payload["diagnostics"]
            results.append(result)
        return {
            "results": results,
            "cache_hits": hits,
            "cache": bool(inputs) and hits == len(inputs),
            "version": self.workspace.get(name).version,
        }

    # -- persistence -------------------------------------------------------

    def _snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self.workspace.get(require(request, "session"))
        path = request.get("path")
        if path is not None:
            save_session(session, path)
            return {"saved": path, "version": session.version}
        return {"snapshot": session_to_dict(session), "version": session.version}

    def _restore(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = request.get("session")
        if "path" in request:
            session = load_session(request["path"], name=name)
        elif "snapshot" in request:
            session = session_from_dict(request["snapshot"], name=name)
        else:
            raise ProtocolError("'restore' needs a 'path' or 'snapshot' field")
        self.workspace.adopt(session, force=flag_of(request, "force"))
        return {
            "restored": session.name,
            "rules": len(session.language.grammar),
            "version": session.version,
        }

    # -- introspection -----------------------------------------------------

    def _metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if "session" in request:
            session = self.workspace.get(request["session"])
            return {
                "version": session.version,
                "rules": len(session.language.grammar),
                "summary": session.summary(),
            }
        return {
            "sessions": len(self.workspace),
            "cache": self.workspace.cache.stats.snapshot(),
            "cache_entries": len(self.workspace.cache),
            "action_cache": self.workspace.action_cache_summary(),
            "requests": self.stats.snapshot(),
        }

    def _record_laziness(self) -> None:
        """Publish the §5.2 laziness measurement over the open sessions.

        Computed only at export time (never per parse); the full-table
        denominator is memoized per grammar version, so repeated scrapes
        cost one graph walk per session.
        """
        materialized = full = 0
        for name in self.workspace.names():
            try:
                session = self.workspace.get(name)
            except ServiceError:  # closed between names() and get()
                continue
            language = session.language
            materialized += states_materialized(language.generator.graph)
            full += full_table_states(language.grammar)
        obs.gauge("repro.lazy.states_materialized").set(materialized)
        obs.gauge("repro.lazy.full_table_states").set(full)
        obs.gauge("repro.lazy.table_fraction").set(
            round(materialized / full, 4) if full else 0.0
        )

    def _metrics_export(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The unified telemetry surface: Prometheus text or JSON.

        Global by design — the registry is per process.  Under a
        process-mode scheduler this handler runs in every child; the
        parent merges the JSON snapshots (see
        :mod:`repro.service.scheduler`).
        """
        fmt = request.get("format", "prometheus")
        if fmt not in EXPORT_FORMATS:
            raise ProtocolError(
                f"unknown metrics-export format {fmt!r} — known: "
                f"{', '.join(EXPORT_FORMATS)}"
            )
        self._record_laziness()
        snapshot = obs.REGISTRY.snapshot()
        response: Dict[str, Any] = {"format": fmt}
        if fmt == "prometheus":
            response["text"] = obs.render_prometheus(snapshot)
        else:
            response["metrics"] = snapshot
        spans = request.get("spans")
        if isinstance(spans, int) and not isinstance(spans, bool) and spans > 0:
            response["spans"] = obs.recent_spans(spans)
        return response

    def _health(self, _request: Dict[str, Any]) -> Dict[str, Any]:
        """Single-process liveness: reaching this handler *is* the check.

        Under a supervising scheduler the command is answered parent-side
        with per-shard detail; this handler is the answer a standalone
        dispatcher (or one process-shard child) gives, so the parent's
        ``shards`` array and a child's probe use the same verb.
        """
        return {
            "healthy": True,
            "mode": "inline",
            "sessions": len(self.workspace),
        }

    def _ready(self, _request: Dict[str, Any]) -> Dict[str, Any]:
        return {"ready": True, "mode": "inline"}

    def _info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if "session" in request:
            session = self.workspace.get(request["session"])
            return {
                "version": session.version,
                "rules": len(session.language.grammar),
                "grammar": session.grammar_text,
                "sorts": sorted(session.language.sorts),
            }
        from ..api import engines

        return {
            "protocol": PROTOCOL_VERSION,
            "commands": list(COMMANDS),
            "engines": list(engines()),
            "sessions": list(self.workspace.names()),
        }
