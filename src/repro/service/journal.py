"""Per-shard mutation journals: the replay log behind shard recovery.

A process shard's sessions live in its child's memory; when the child
dies they die with it.  The supervisor's contract is that **acknowledged
state survives**: any mutation the client saw a success response for
must exist again after the respawn, at the exact same grammar version.
The journal is how — the shard records every acknowledged mutating
request (``open``/``add-rule``/``delete-rule``/``restore``) in arrival
order, and replaying that sequence into a fresh child reproduces the
sessions deterministically (grammar versions advance once per mutation,
and :func:`~repro.service.snapshot.session_from_dict` pins the version
on restore, so replay reproduces versions exactly, not just rule sets).

Unacknowledged mutations are deliberately *absent*: a request that was
in flight when the child died is answered ``shard-restarting`` and
retried by the client, so recording it too would apply it twice.

Compaction keeps replay O(sessions), not O(history): once a session
accumulates enough entries the shard asks the live child for a
``snapshot`` and the journal collapses that session's run into a single
forced ``restore`` — the same protocol command, so replay stays "feed
the log back through the service".
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from .protocol import ProtocolError, session_of

__all__ = ["MutationJournal"]

Request = Dict[str, Any]

#: Journal entries replayed verbatim never need these transport-level
#: fields; stripping them keeps replay quiet and deterministic.

#: Commands the journal keeps (``close`` drops a session's history).
_JOURNALED = frozenset({"open", "add-rule", "delete-rule", "restore", "close"})
_STRIP_FIELDS = ("trace", "deadline_ms")


class MutationJournal:
    """An ordered, compactable log of acknowledged session mutations.

    Thread-safe: the shard worker records and compacts, while health
    endpoints read counts from other threads.
    """

    def __init__(self, compact_threshold: int = 32) -> None:
        if compact_threshold < 2:
            raise ValueError(
                f"compact_threshold must be at least 2, got {compact_threshold}"
            )
        self.compact_threshold = compact_threshold
        self._lock = threading.Lock()
        #: (session, request-copy) in arrival order
        self._entries: List[Any] = []
        self._per_session: Dict[str, int] = {}
        self.recorded = 0
        self.compactions = 0

    # -- recording ---------------------------------------------------------

    def record(self, request: Any, response: Any) -> bool:
        """Journal ``request`` if it is an acknowledged mutation.

        Returns True when an entry was added (or the log shrank, for
        ``close``).  Error responses are never journaled — the client
        was told the mutation did not happen, so replay must agree.
        """
        if not isinstance(request, dict) or not isinstance(response, dict):
            return False
        cmd = request.get("cmd")
        if "error" in response or cmd not in _JOURNALED:
            return False
        try:
            session = session_of(request)
        except ProtocolError:  # refused by the dispatcher as well
            return False
        if session is None:
            return False
        if cmd == "close":
            # A closed session needs no replay; drop its whole history so
            # recovery does not resurrect it.
            with self._lock:
                self._drop_session(session)
            return True
        entry = {
            key: value
            for key, value in request.items()
            if key not in _STRIP_FIELDS
        }
        with self._lock:
            if cmd in ("open", "restore"):
                # Both replace the session wholesale — earlier entries
                # can no longer affect the replayed state.
                self._drop_session(session)
            self._entries.append((session, entry))
            self._per_session[session] = self._per_session.get(session, 0) + 1
            self.recorded += 1
        return True

    def _drop_session(self, session: str) -> None:
        if self._per_session.pop(session, 0):
            self._entries = [
                item for item in self._entries if item[0] != session
            ]

    # -- compaction --------------------------------------------------------

    def needs_compaction(self) -> Optional[str]:
        """A session whose run exceeds the threshold, or None."""
        with self._lock:
            for session, count in self._per_session.items():
                if count >= self.compact_threshold:
                    return session
        return None

    def compact(self, session: str, snapshot_payload: Dict[str, Any]) -> None:
        """Collapse ``session``'s entries into one forced ``restore``.

        ``snapshot_payload`` is the live child's answer to ``snapshot`` —
        it already carries the grammar version, so the collapsed entry
        reproduces exactly the state the long run would have.
        """
        entry = {
            "cmd": "restore",
            "session": session,
            "snapshot": snapshot_payload,
            "force": True,
        }
        with self._lock:
            self._drop_session(session)
            self._entries.append((session, entry))
            self._per_session[session] = 1
            self.compactions += 1

    # -- replay ------------------------------------------------------------

    def replay_requests(self) -> List[Request]:
        """The ordered commands that rebuild every journaled session."""
        with self._lock:
            return [dict(entry) for _session, entry in self._entries]

    # -- introspection -----------------------------------------------------

    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    def session_count(self) -> int:
        with self._lock:
            return len(self._per_session)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "sessions": len(self._per_session),
                "recorded": self.recorded,
                "compactions": self.compactions,
            }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"MutationJournal({stats['entries']} entries, "
            f"{stats['sessions']} sessions)"
        )
