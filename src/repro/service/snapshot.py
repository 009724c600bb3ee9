"""Session persistence: snapshot to JSON, restore for a warm restart.

A snapshot is the grammar text, its sort declarations and the session's
grammar version — nothing the lazy generator can rebuild.  Parse tables
and graphs of item sets are never serialized: a restored session
regenerates its states by need on its first parses, which is exactly
what lazy generation is fast at, and so it answers every request
exactly as the session it was taken from.

Snapshots written before tables were dropped may still carry a
``"table"`` entry; it is ignored on restore, so files load in both
directions under the same :data:`SESSION_FORMAT_VERSION`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..lr.serialize import (
    grammar_from_dict,
    grammar_to_dict,
    load_payload,
    save_payload,
)
from .protocol import ServiceError
from .workspace import ParseSession

#: Format tag for serialized sessions.
SESSION_FORMAT_VERSION = 1


def session_to_dict(session: ParseSession) -> Dict[str, Any]:
    """A JSON-able snapshot of ``session``: grammar text plus version."""
    return {
        "format": SESSION_FORMAT_VERSION,
        "kind": "ipg-session",
        "session": session.name,
        "version": session.version,
        "grammar": grammar_to_dict(
            session.language.grammar, tuple(session.language.sorts)
        ),
    }


def session_from_dict(
    payload: Dict[str, Any], name: Optional[str] = None
) -> ParseSession:
    """Rebuild a session from a snapshot payload.

    ``name`` overrides the recorded session name (restoring somebody
    else's snapshot under a fresh name is how sessions are cloned).
    """
    if payload.get("format") != SESSION_FORMAT_VERSION:
        raise ServiceError(
            f"unsupported session snapshot format {payload.get('format')!r}"
        )
    if payload.get("kind") != "ipg-session":
        raise ServiceError(f"not a session snapshot: kind={payload.get('kind')!r}")
    grammar_payload = payload.get("grammar") or {}
    grammar = grammar_from_dict(grammar_payload)
    # Continue the saved session's version counter so protocol clients
    # keying on the advertised version never see it move backwards.
    grammar.advance_revision(int(payload.get("version", 0)))
    return ParseSession(
        name or payload.get("session", "restored"),
        sorts=grammar_payload.get("sorts", ()),
        grammar=grammar,
    )


def save_session(session: ParseSession, path: str) -> Dict[str, Any]:
    """Snapshot ``session`` to ``path``; returns the written payload."""
    payload = session_to_dict(session)
    save_payload(payload, path)
    return payload


def load_session(path: str, name: Optional[str] = None) -> ParseSession:
    return session_from_dict(load_payload(path), name=name)
