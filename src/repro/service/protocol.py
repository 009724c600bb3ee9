"""The JSON request/response protocol of the parse service.

Requests are JSON objects with a ``cmd`` field; responses are JSON objects
that always carry a ``time`` field (seconds spent serving the request) and,
for parse-shaped commands, a ``cache`` field — the shape of the Korp corpus
backend's command/parameter API, which this service deliberately mirrors.

The wire format is line-delimited JSON, but the decoder is tolerant: a
single physical line may carry several concatenated objects (optionally
separated by literal ``\\n`` escape sequences, as produced by shells whose
``echo`` does not interpret backslash escapes), and :func:`iter_requests`
yields each object in order.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Union

from ..runtime.forest import ENUMERATION_CAP

#: Version of the request/response protocol, reported by ``info``.
#: Version 2: parse/recognize accept an optional ``engine`` field
#: (validated against the :mod:`repro.api` registry), rejected parses
#: carry a structured ``diagnostics`` object, and parse-shaped responses
#: name the ``engine`` that served them.
#: Version 3: ``parse`` accepts ``"checkpoint": true`` (the response
#: gains a ``result`` id naming the retained incremental checkpoint) and
#: the ``edit-parse`` command re-parses a previous result after a splice
#: edit, reusing its checkpoints (response carries ``result`` and
#: ``reuse``).
#: Version 4 (v3-compatible): the ``metrics-export`` command emits the
#: unified :mod:`repro.obs` registry as Prometheus text
#: (``"format": "prometheus"``, the default) or JSON
#: (``"format": "json"``, optionally with ``"spans": N`` recent span
#: trees), and any request may set ``"trace": true`` to receive its
#: span tree in a ``trace`` response field alongside the Korp-style
#: ``time``.
#: Version 5 (v4-compatible): any request may set ``"deadline_ms": N``
#: (a per-request wall-clock budget; exceeding it answers
#: ``{"error": "deadline-exceeded", "deadline_ms": N,
#: "tokens_consumed": M}``), the ``health`` and ``ready`` commands
#: report per-shard liveness/supervision state, and a supervised
#: scheduler answers requests to a crashed or tripped shard with the
#: retryable ``{"error": "shard-restarting", "retry_after_ms": N}`` and
#: terminal ``{"error": "shard-degraded"}`` shapes.
#: Version 6 (v5-compatible): the corpus service.  ``parse``/``recognize``
#: accept ``"cache": false`` (bypass the shared result cache — Korp's
#: ``cache`` parameter), and the ``corpus-*`` commands (``corpus-create``,
#: ``corpus-ingest``, ``corpus-parse``, ``corpus-status``,
#: ``corpus-query``, ``corpus-info``) manage named corpora under a
#: persistent ``--corpus-root``: content-hashed bulk ingest, resumable
#: batch parsing across shards, and paginated queries over the stored
#: results.
#: Version 7 (v6-compatible): shared-forest results.  ``parse`` (and
#: ``edit-parse``/``batch-parse``) accept ``"max_trees": N`` bounding how
#: many derivations are enumerated into the ``trees`` list; accepted
#: tree-building responses carry an ``ambiguity`` object
#: ``{"tree_count": T, "enumerated": E, "truncated": bool}`` counting the
#: whole packed forest even when enumeration is capped.  Cache entries
#: are keyed by ``max_trees``, so differently-bounded requests never
#: alias.  ``parse`` against a recognize-only engine degrades to
#: recognition (``"trees_built": false``) instead of erroring.
#: Version 8 (v7-compatible for requests): snapshots are grammar text
#: plus version.  ``snapshot`` no longer reports ``deterministic``, and
#: ``restore``/``metrics``/``info`` no longer report the v7 SLR
#: fast-path flag; a restored session answers through the same engines
#: as the session it was taken from.  Snapshot files carrying a v7
#: ``table`` still restore (the table is ignored).
#: Version 9 (v8-compatible for requests): bounded answers by default.
#: A ``parse``, ``edit-parse`` or ``batch-parse`` without ``max_trees``
#: renders :data:`DEFAULT_MAX_TREES` tree(s); ``ambiguity.tree_count``
#: still counts the whole forest, so a client asks for more with an
#: explicit ``max_trees`` (at most the forest enumeration cap, larger
#: bounds are refused).  A ``parse``, ``recognize`` or ``batch-parse``
#: with neither ``engine`` nor ``"checkpoint": true`` runs on ``gss``;
#: checkpointed requests and ``edit-parse`` keep the session's default
#: engine (``compiled``).  Cache keys and result ids name the bound and
#: the engine a request resolves to, so naming either explicitly is the
#: same request as leaving it out.
#: Version 10 (v9-compatible for requests other than ``"engine":
#: "compiled"``): one production engine.  The registry is ``lazy``,
#: ``gss`` and ``earley``, so ``"engine": "compiled"`` gets the
#: registry's "unknown engine" error.  Checkpointed requests and
#: ``edit-parse`` run on ``gss`` like every other request that names no
#: engine; an ``edit-parse`` on ``lazy`` re-parses in full (its ``reuse``
#: names the ``engine-without-reparse`` fallback).
PROTOCOL_VERSION = 10

#: Trees a parse-shaped request renders when it names no ``max_trees``.
DEFAULT_MAX_TREES = 1

#: Commands the dispatcher understands (documented in README.md).
COMMANDS = (
    "open",
    "close",
    "add-rule",
    "delete-rule",
    "parse",
    "edit-parse",
    "recognize",
    "batch-parse",
    "snapshot",
    "restore",
    "metrics",
    "metrics-export",
    "info",
    "sessions",
    "health",
    "ready",
    "corpus-create",
    "corpus-ingest",
    "corpus-parse",
    "corpus-status",
    "corpus-query",
    "corpus-info",
)


class ServiceError(Exception):
    """Base class for errors reported as ``{"error": ...}`` responses."""


class ProtocolError(ServiceError):
    """Malformed request: bad JSON, missing field, unknown command."""


class SessionNotFound(ServiceError):
    """The request names a session the workspace does not hold."""


def require(request: Dict[str, Any], field: str) -> Any:
    """The value of ``field``, or a :class:`ProtocolError` naming it."""
    if field not in request:
        cmd = request.get("cmd", "?")
        raise ProtocolError(f"{cmd!r} request is missing the {field!r} field")
    return request[field]


def sorts_of(request: Dict[str, Any]) -> List[str]:
    """The optional ``sorts`` field: a list of sort names (default none).

    A bare string is refused, not iterated: ``"sorts": "NUM"`` would
    otherwise declare the three sorts N, U and M.
    """
    sorts = request.get("sorts", ())
    if not isinstance(sorts, (list, tuple)) or not all(
        isinstance(sort, str) for sort in sorts
    ):
        raise ProtocolError("'sorts' must be a list of sort names")
    return list(sorts)


def session_of(request: Dict[str, Any]) -> Optional[str]:
    """The session ``request`` addresses, or None when it names none.

    That is the ``session`` field or, for a ``restore`` without one, the
    session recorded in its ``snapshot`` payload.  Routing and the
    mutation journal both read it here, so they cannot disagree.  A name
    that is not a non-empty string is refused: sessions are keyed, sorted
    and journaled by name.
    """
    if "session" in request:
        name, where = request["session"], "'session'"
    else:
        snapshot = request.get("snapshot") if request.get("cmd") == "restore" else None
        if not isinstance(snapshot, dict) or "session" not in snapshot:
            return None
        name, where = snapshot["session"], "the snapshot's 'session'"
    if not isinstance(name, str) or not name:
        raise ProtocolError(f"{where} must be a non-empty string, got {name!r}")
    return name


def token_input(value: Any, what: str = "'tokens'") -> Union[str, List[str]]:
    """A token input: source text, or a list of token names.

    A JSON object is refused, not iterated: ``{"true": 1}`` would
    otherwise parse its keys.
    """
    if isinstance(value, str) or (
        isinstance(value, list) and all(isinstance(name, str) for name in value)
    ):
        return value
    raise ProtocolError(f"{what} must be a string or a list of token names")


def flag_of(request: Dict[str, Any], field: str, default: bool = False) -> bool:
    """The optional boolean ``field`` (``default`` when absent).

    Only a JSON boolean counts: ``"force": "false"`` is refused, not read
    as a truthy string.
    """
    value = request.get(field, default)
    if not isinstance(value, bool):
        raise ProtocolError(
            f"{field!r} must be a boolean, got {type(value).__name__}"
        )
    return value


def max_trees_of(request: Dict[str, Any]) -> int:
    """The ``max_trees`` bound a parse-shaped request renders under.

    Absent (or null) is :data:`DEFAULT_MAX_TREES`.  A bound over the
    forest enumeration cap is refused: rendering that many trees would
    outlast any deadline the request could carry.
    """
    value = request.get("max_trees")
    if value is None:
        return DEFAULT_MAX_TREES
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ProtocolError(
            f"'max_trees' must be a positive integer, got {value!r}"
        )
    if value > ENUMERATION_CAP:
        raise ProtocolError(
            f"'max_trees' must be at most {ENUMERATION_CAP}, got {value}"
        )
    return value


def encode(response: Dict[str, Any]) -> str:
    """One response as compact, key-sorted JSON (no trailing newline)."""
    return json.dumps(response, separators=(",", ":"), sort_keys=True)


def iter_requests(text: str) -> Iterator[Dict[str, Any]]:
    """Yield every JSON object embedded in ``text``.

    Handles the strict case (one object) and the concatenated case
    (several objects on one line, separated by whitespace or by the
    two-character sequences ``\\n`` / ``\\r`` that an escape-unaware
    ``echo`` leaves between objects).
    """
    decoder = json.JSONDecoder()
    index, length = 0, len(text)
    while index < length:
        while index < length:
            if text[index].isspace():
                index += 1
            elif text[index] == "\\" and index + 1 < length and text[index + 1] in "nrt":
                index += 2
            else:
                break
        if index >= length:
            break
        try:
            payload, index = decoder.raw_decode(text, index)
        except json.JSONDecodeError as error:
            raise ProtocolError(f"bad JSON request: {error}") from error
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"requests must be JSON objects, got {type(payload).__name__}"
            )
        yield payload


def parse_request(line: str) -> Optional[Dict[str, Any]]:
    """The single request on ``line`` (None for blank/comment lines)."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    requests = list(iter_requests(stripped))
    if len(requests) != 1:
        raise ProtocolError(f"expected one request per line, got {len(requests)}")
    return requests[0]
