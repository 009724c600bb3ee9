"""Named grammar-definition sessions and the registry that owns them.

A :class:`ParseSession` holds one :class:`~repro.api.Language` (which
owns the grammar, its declared sorts and the monotone grammar version)
plus the state the service keeps per user: retained incremental
checkpoints and the modify listeners.  A
:class:`Workspace` is the paper's "many users" made concrete: a
dictionary of named sessions sharing one LRU result cache, wired so that
every MODIFY (observed through the existing :meth:`Grammar.subscribe`
hook) evicts that session's cached results and checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .. import obs
from ..api.language import Language, LexedInput, TokenInput
from ..grammar.builders import grammar_from_text
from ..grammar.grammar import Grammar
from ..grammar.rules import Rule
from .cache import CacheKey, ResultCache
from .protocol import ServiceError, SessionNotFound

#: Callback invoked (with the session) after every grammar modification.
ModifyListener = Callable[["ParseSession"], None]

#: Checkpointed results retained per session for ``edit-parse``.  Each
#: entry pins an :class:`~repro.runtime.incremental.IncrementalOutcome`
#: (stack frontiers + forest), so the bound is a memory bound; sessions
#: are shard-pinned, so the store needs no lock.
CHECKPOINT_CAPACITY = 16

#: Checkpoints dropped by LRU pressure, over every session: an instrument
#: counter, so it stays monotone when sessions close or workspaces go.
_CHECKPOINT_EVICTIONS = obs.counter("repro.checkpoints.evictions")


class ParseSession:
    """One named grammar-definition session: a Language plus user state."""

    def __init__(
        self,
        name: str,
        grammar_text: str = "",
        sorts: Iterable[str] = (),
        grammar: Optional[Grammar] = None,
    ) -> None:
        self.name = name
        sorts = set(sorts)
        if grammar is None:
            grammar = (
                grammar_from_text(grammar_text, sorts=sorts)
                if grammar_text.strip()
                else Grammar()
            )
        #: grammar, declared sorts, tokenizer and engine registry
        self.language = Language(grammar, sorts=sorts)
        self._listeners: List[ModifyListener] = []
        #: result id -> (checkpoint-carrying ParseOutcome, response
        #: payload); the store behind ``parse {"checkpoint": true}`` and
        #: ``edit-parse`` — session-local, so shards serve edits without
        #: any cross-shard state.
        self.results: "OrderedDict[str, Tuple[Any, Dict[str, Any]]]" = (
            OrderedDict()
        )
        #: Checkpoints dropped by LRU pressure in :meth:`_retain` —
        #: surfaced as ``repro.checkpoints.evictions`` so clients whose
        #: ``edit-parse`` bases keep disappearing can see why.
        self.checkpoint_evictions = 0
        self._unsubscribe = self.language.grammar.subscribe(self._on_modify)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Detach from the grammar's observer list."""
        self._unsubscribe()
        self._listeners.clear()
        self.language.close()

    def on_modify(self, listener: ModifyListener) -> None:
        self._listeners.append(listener)

    def _on_modify(self, _grammar: Grammar, _rule: Rule, _added: bool) -> None:
        # Any MODIFY outdates the retained incremental checkpoints and
        # (via the registered listeners) every cached result for this
        # session.
        self.results.clear()
        for listener in list(self._listeners):
            listener(self)

    # -- grammar state -----------------------------------------------------

    @property
    def version(self) -> int:
        return self.language.version

    @property
    def grammar_text(self) -> str:
        return self.language.grammar.pretty()

    def add_rule(self, rule: str, sorts: Iterable[str] = ()) -> bool:
        return self.language.add_rule(rule, sorts=sorts)

    def delete_rule(self, rule: str, sorts: Iterable[str] = ()) -> bool:
        return self.language.delete_rule(rule, sorts=sorts)

    # -- parsing (JSON-able payloads) --------------------------------------

    def parse_payload(
        self,
        tokens: TokenInput,
        engine: Optional[str] = None,
        max_trees: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The cacheable ``{"accepted", "trees", "engine", ...}`` value.

        Built from a :class:`~repro.api.ParseOutcome`: rejected inputs
        carry a ``diagnostics`` object (token index, line/column when the
        input was raw text, and the expected terminal set).  Accepted
        tree-building payloads carry the protocol v7 ``ambiguity`` object;
        ``max_trees`` bounds how many derivations the ``trees`` list
        enumerates (the forest is counted in full regardless).
        """
        return self._parse_lexed(self.language.lex(tokens), engine, max_trees)

    def _parse_lexed(
        self,
        lexed: "LexedInput",
        engine: Optional[str] = None,
        max_trees: Optional[int] = None,
    ) -> Dict[str, Any]:
        if not self.language.engine(engine).supports_trees:
            # Recognize-only engines degrade to recognition instead of a
            # CapabilityError: the service keeps its v6 behaviour of
            # answering with ``"trees_built": false``.
            outcome = self.language.parse_lexed(
                lexed, engine=engine, build_trees=False
            )
            return outcome.to_payload()
        return self.language.parse_lexed(lexed, engine=engine).to_payload(
            max_trees=max_trees
        )

    def recognize_payload(
        self, tokens: TokenInput, engine: Optional[str] = None
    ) -> Dict[str, Any]:
        return self._recognize_lexed(self.language.lex(tokens), engine)

    def _recognize_lexed(
        self, lexed: "LexedInput", engine: Optional[str] = None
    ) -> Dict[str, Any]:
        outcome = self.language.parse_lexed(
            lexed, engine=engine, build_trees=False
        )
        payload = outcome.to_payload()
        payload.pop("trees", None)
        payload.pop("trees_built", None)
        return payload

    def engine_for(self, engine: Optional[str]) -> str:
        """The engine a request runs on: ``engine`` when it names one,
        else the language's default (``gss``).

        Cache keys and result ids spell this name, so naming the engine a
        request would run on anyway is the same request as naming none.
        """
        return engine if engine is not None else self.language.default_engine

    # -- incremental re-parsing (checkpoint store) -------------------------

    def _result_id(self, *parts: Any) -> str:
        """Deterministic id for a (version-chained) parse result.

        Ids are pure functions of the session state and request, so a
        repeated request maps to the same id (and the same retained
        checkpoint), and an ``edit-parse`` id chains
        ``(version, base id, edit)`` — the lineage of the checkpoints it
        reuses.
        """
        blob = json.dumps(parts, sort_keys=True, default=str)
        return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]

    def _retain(
        self, result_id: str, outcome: Any, payload: Dict[str, Any]
    ) -> None:
        self.results[result_id] = (outcome, payload)
        self.results.move_to_end(result_id)
        while len(self.results) > CHECKPOINT_CAPACITY:
            self.results.popitem(last=False)
            self.checkpoint_evictions += 1
            _CHECKPOINT_EVICTIONS.inc()

    def checkpoint_parse(
        self,
        tokens: TokenInput,
        engine: Optional[str] = None,
        mode: str = "parse",
        max_trees: Optional[int] = None,
    ) -> Tuple[Dict[str, Any], bool]:
        """A parse/recognize that retains checkpoints for ``edit-parse``.

        Returns ``(payload, was_cached)``; the payload's ``result`` field
        is the id ``edit-parse`` requests pass as ``base``.  Bypasses the
        shared result cache: the retained
        checkpoint-carrying outcome *is* the cache here, and a hit must
        hand back an entry that still owns live checkpoints.  In
        ``"recognize"`` mode checkpoints carry pure state frontiers, the
        regime where an edit re-converges a token or two past the damage.
        """
        engine = self.engine_for(engine)
        lexed = self.language.lex(tokens)
        result_id = self._result_id(
            mode,
            self.version,
            engine,
            [t.name for t in lexed.terminals],
            lexed.text,
            max_trees,
        )
        held = self.results.get(result_id)
        if held is not None:
            self.results.move_to_end(result_id)
            return held[1], True
        build_trees = (
            mode == "parse" and self.language.engine(engine).supports_trees
        )
        outcome = self.language.parse_lexed(
            lexed,
            engine=engine,
            build_trees=build_trees,
            checkpoint=True,
        )
        payload = self._result_payload(outcome, result_id, mode, max_trees)
        self._retain(result_id, outcome, payload)
        return payload, False

    @staticmethod
    def _result_payload(
        outcome: Any,
        result_id: str,
        mode: str,
        max_trees: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The retained response payload (tree-less in recognition mode,
        matching the plain ``recognize`` payload shape)."""
        payload = outcome.to_payload(max_trees=max_trees)
        if mode == "recognize":
            payload.pop("trees", None)
            payload.pop("trees_built", None)
            payload.pop("ambiguity", None)
        payload["result"] = result_id
        return payload

    def edit_parse(
        self,
        base: str,
        start: int,
        end: int,
        replacement: TokenInput = (),
        engine: Optional[str] = None,
        max_trees: Optional[int] = None,
    ) -> Tuple[Dict[str, Any], bool]:
        """Re-parse retained result ``base`` after a splice edit.

        The new result is retained under an id chaining
        ``(session version, base id, edit)``, so chains of edits keep
        resuming from checkpoints, and a repeated identical edit request
        is a cache hit.  An unknown ``base`` (never parsed with
        ``checkpoint``, evicted, or dropped by a grammar edit) is a
        :class:`ServiceError` telling the client to re-establish one.
        """
        held = self.results.get(base)
        if held is None:
            raise ServiceError(
                f"unknown result {base!r} in session {self.name!r} — "
                f"checkpoints are dropped by grammar edits and LRU "
                f"pressure; re-parse with \"checkpoint\": true"
            )
        replacement_names = (
            replacement
            if isinstance(replacement, str)
            else [getattr(t, "name", str(t)) for t in replacement]
        )
        if engine is None:
            engine = held[0].engine  # an edit re-parses on its base's engine
        result_id = self._result_id(
            "edit",
            self.version,
            engine,
            base,
            start,
            end,
            replacement_names,
            max_trees,
        )
        cached = self.results.get(result_id)
        if cached is not None:
            self.results.move_to_end(result_id)
            return cached[1], True
        outcome = self.language.reparse(
            held[0], start, end, replacement, engine=engine
        )
        # The edit inherits the base's mode; a recognition-mode base
        # ("trees" absent from its payload) yields tree-less responses.
        mode = "parse" if "trees" in held[1] else "recognize"
        payload = self._result_payload(outcome, result_id, mode, max_trees)
        payload["base"] = base
        self._retain(result_id, outcome, payload)
        return payload, False

    def summary(self) -> Dict[str, int]:
        return self.language.summary()

    def __repr__(self) -> str:
        return (
            f"ParseSession({self.name!r}, {len(self.language.grammar)} rules, "
            f"version={self.version})"
        )


class Workspace:
    """The registry of sessions plus the shared result cache.

    The registry dict is guarded by a re-entrant lock.  Each *session* is
    driven by one thread at a time (single-writer — parse/edit calls on a
    session need no lock), but the registry is shared by two: a
    ``corpus-parse`` job on a ``Dispatcher(corpus_root=...)`` runs on its
    own :class:`~repro.corpus.pipeline.ParseJob` thread and calls
    ``Dispatcher.handle`` for its worker sessions, while the caller's
    thread opens, closes and lists the others.  Without the lock those
    registry operations would race with each other and with the
    per-request ``get`` lookups.  Session-internal state stays lock-free
    by ownership; only the shared structures (this registry and the
    :class:`ResultCache`) take locks.
    """

    def __init__(self, cache_capacity: int = 1024) -> None:
        self._sessions: Dict[str, ParseSession] = {}
        self._lock = threading.RLock()
        self.cache = ResultCache(cache_capacity)
        # Surface the shared result-cache counters and the session count
        # through the obs registry.  The registration is weak: a
        # workspace dropped by its dispatcher stops being polled, so
        # short-lived workspaces (tests, `repro batch`) cannot leak.
        obs.register_object_collector(self, Workspace._collect_metrics)

    @staticmethod
    def _collect_metrics(self: "Workspace"):
        for key, value in self.cache.stats.snapshot().items():
            if key != "hit_rate":
                yield ("repro.result_cache." + key, None, "counter", value)
        yield ("repro.result_cache.entries", None, "gauge", len(self.cache))
        yield ("repro.workspace.sessions", None, "gauge", len(self))
        with self._lock:
            sessions = list(self._sessions.values())
        yield (
            "repro.checkpoints.entries",
            None,
            "gauge",
            sum(len(session.results) for session in sessions),
        )

    # -- registry ----------------------------------------------------------

    def open(
        self,
        name: str,
        grammar_text: str = "",
        sorts: Iterable[str] = (),
        force: bool = False,
    ) -> ParseSession:
        # Fast-fail duplicate check, then build OUTSIDE the lock: a large
        # grammar takes real time to build, and holding the registry lock
        # through it would stall the other thread's get() lookups.  A
        # losing racer (same name opened concurrently) is caught again by
        # adopt's locked check-and-insert.
        with self._lock:
            if name in self._sessions and not force:
                raise ServiceError(
                    f"session {name!r} is already open (pass force to replace it)"
                )
        session = ParseSession(name, grammar_text, sorts)
        return self.adopt(session, force=force)

    def adopt(self, session: ParseSession, force: bool = False) -> ParseSession:
        """Register an externally built session (e.g. a snapshot restore)."""
        with self._lock:
            if self._sessions.get(session.name) is session:
                # Idempotent re-adoption: closing-and-re-adding the same
                # object would detach its own grammar subscription for good.
                return session
            if session.name in self._sessions:
                if not force:
                    raise ServiceError(
                        f"session {session.name!r} is already open "
                        f"(pass force to replace it)"
                    )
                self.close(session.name)
            session.on_modify(self._invalidate)
            self._sessions[session.name] = session
            return session

    def get(self, name: str) -> ParseSession:
        with self._lock:
            try:
                return self._sessions[name]
            except KeyError:
                raise SessionNotFound(
                    f"no open session named {name!r} — 'open' it first"
                ) from None

    def close(self, name: str) -> bool:
        with self._lock:
            session = self._sessions.pop(name, None)
        if session is None:
            return False
        session.close()
        self.cache.invalidate(name)
        return True

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._sessions))

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._sessions

    def _invalidate(self, session: ParseSession) -> None:
        self.cache.invalidate(session.name)

    def action_cache_summary(self) -> Dict[str, int]:
        """Aggregate compiled-control ACTION-cache counters over sessions.

        Warm service traffic should show hits dominating misses; a grammar
        edit shows up as a flush with a small eviction count (only the
        states MODIFY touched).
        """
        with self._lock:
            sessions = list(self._sessions.values())
        total: Dict[str, int] = {}
        for session in sessions:
            for key, value in session.language.control.stats.snapshot().items():
                total[key] = total.get(key, 0) + value
        return total

    # -- cached parsing ----------------------------------------------------

    def _cached(
        self,
        name: str,
        mode: str,
        tokens: TokenInput,
        engine: Optional[str] = None,
        use_cache: bool = True,
        max_trees: Optional[int] = None,
    ) -> Tuple[Dict[str, Any], bool]:
        session = self.get(name)
        engine = session.engine_for(engine)
        lexed = session.language.lex(tokens)
        if not use_cache:
            # Korp's ``cache=false``: bulk/corpus traffic must neither
            # read possibly-hot entries (its answers are stored anyway)
            # nor evict the interactive sessions' working set.
            payload = (
                session._parse_lexed(lexed, engine, max_trees)
                if mode == "parse"
                else session._recognize_lexed(lexed, engine)
            )
            return payload, False
        # The engine participates in the key: payloads differ across
        # engines (tree availability, reported engine name), so a cached
        # answer for one engine must never serve another (the engine a
        # request resolves to, named or not, is one key).  So does the
        # raw source text: two inputs whose tokens merely match by name
        # ("true\nor" vs "true or", or a token list) produce different
        # line/column/offset diagnostics, and a cached rejection must
        # never serve another spelling's positions.  And ``max_trees``
        # (v7): differently-bounded enumerations are different payloads.
        key: CacheKey = (
            name,
            session.version,
            f"{mode}:{engine}",
            tuple(t.name for t in lexed.terminals),
            lexed.text,
            max_trees,
        )
        hit, value = self.cache.get(key)
        if hit:
            return value, True
        payload = (
            session._parse_lexed(lexed, engine, max_trees)
            if mode == "parse"
            else session._recognize_lexed(lexed, engine)
        )
        self.cache.put(key, payload)
        return payload, False

    def parse(
        self,
        name: str,
        tokens: TokenInput,
        engine: Optional[str] = None,
        checkpoint: bool = False,
        use_cache: bool = True,
        max_trees: Optional[int] = None,
    ) -> Tuple[Dict[str, Any], bool]:
        """``(payload, was_cached)`` for a tree-building parse.

        With ``checkpoint=True`` the parse goes through the session's
        checkpoint store instead of the shared LRU (the retained
        incremental outcome is the cacheable thing), and the payload
        carries the ``result`` id for ``edit-parse``.  With
        ``use_cache=False`` the shared LRU is bypassed entirely.
        ``max_trees`` bounds how many derivations are enumerated into the
        payload's ``trees`` (protocol v7).
        """
        if checkpoint:
            return self.get(name).checkpoint_parse(
                tokens, engine, mode="parse", max_trees=max_trees
            )
        return self._cached(
            name, "parse", tokens, engine, use_cache=use_cache,
            max_trees=max_trees,
        )

    def edit_parse(
        self,
        name: str,
        base: str,
        start: int,
        end: int,
        replacement: TokenInput = (),
        engine: Optional[str] = None,
        max_trees: Optional[int] = None,
    ) -> Tuple[Dict[str, Any], bool]:
        """``(payload, was_cached)`` for an incremental edit re-parse."""
        return self.get(name).edit_parse(
            base, start, end, replacement, engine=engine, max_trees=max_trees
        )

    def recognize(
        self,
        name: str,
        tokens: TokenInput,
        engine: Optional[str] = None,
        checkpoint: bool = False,
        use_cache: bool = True,
    ) -> Tuple[Dict[str, Any], bool]:
        """``(payload, was_cached)`` for accept/reject recognition.

        ``checkpoint=True`` retains state-frontier checkpoints for
        ``edit-parse`` — the regime where edits re-converge a token or
        two past the damage.  ``use_cache=False`` bypasses the LRU.
        """
        if checkpoint:
            return self.get(name).checkpoint_parse(
                tokens, engine, mode="recognize"
            )
        return self._cached(
            name, "recognize", tokens, engine, use_cache=use_cache
        )

    def __repr__(self) -> str:
        return f"Workspace({len(self)} sessions, cache={self.cache!r})"
