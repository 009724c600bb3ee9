"""Session persistence: snapshot to JSON, restore for a warm restart.

A snapshot records what cannot be recomputed instantly — the grammar text
and sort declarations — plus one thing that *can* but is worth shipping:
when the grammar's SLR(1) table is conflict-free, the fully expanded table
rides along (via :mod:`repro.lr.serialize`) and the restored session parses
through the deterministic LR-PARSE fast path until its first MODIFY.

Graphs of item sets are still never serialized (see ``lr/serialize.py``):
the lazy generator rebuilds them by need, which is exactly what it is fast
at.  The table is the one representation whose reconstruction requires the
full ``expand_all`` the service wants to avoid at restart time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..lr.serialize import (
    grammar_from_dict,
    grammar_to_dict,
    load_payload,
    save_payload,
    table_from_dict,
    table_to_dict,
)
from .protocol import ServiceError
from .workspace import ParseSession

#: Format tag for serialized sessions.
SESSION_FORMAT_VERSION = 1


def session_to_dict(session: ParseSession) -> Dict[str, Any]:
    """A JSON-able snapshot of ``session`` (grammar + optional table)."""
    grammar = session.ipg.grammar
    payload: Dict[str, Any] = {
        "format": SESSION_FORMAT_VERSION,
        "kind": "ipg-session",
        "session": session.name,
        "version": session.version,
        "grammar": grammar_to_dict(grammar, tuple(session.sorts)),
        "table": None,
    }
    table = session.deterministic_table()
    if table is not None:
        payload["table"] = table_to_dict(table)
    return payload


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
    session = ParseSession(
        name or payload.get("session", "restored"),
        sorts=grammar_payload.get("sorts", ()),
        grammar=grammar,
    )
    table_payload = payload.get("table")
    if table_payload is not None:
        session.attach_fast_path(table_from_dict(table_payload))
    return session


def save_session(session: ParseSession, path: str) -> Dict[str, Any]:
    """Snapshot ``session`` to ``path``; returns the written payload."""
    payload = session_to_dict(session)
    save_payload(payload, path)
    return payload


def load_session(path: str, name: Optional[str] = None) -> ParseSession:
    return session_from_dict(load_payload(path), name=name)
