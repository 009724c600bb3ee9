"""The LRU result cache of the parse service.

Keys are ``(session, grammar_version, mode, tokens, text)`` tuples.  Because the
grammar version participates in the key, a MODIFY invalidates every cached
parse *implicitly* — a stale entry can never be returned, only linger.  The
workspace additionally subscribes to each session's grammar and calls
:meth:`ResultCache.invalidate` on every notification, so stale entries are
reclaimed eagerly instead of waiting for LRU pressure.

Values are plain JSON-able payload dicts (the exact object the dispatcher
puts in a response), so a cache hit costs one ``OrderedDict`` move and no
re-serialization work.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Set, Tuple

#: Cache key: (session name, grammar version, mode:engine, token names,
#: raw source text — None for token-list inputs, ``max_trees`` bound —
#: None for recognitions).  The engine and the bound are the resolved
#: ones, so spelling out what a request resolves to is the same key.
#: The text participates because rejection
#: payloads carry line/column/offset diagnostics that depend on the exact
#: spelling, not just the token names; ``max_trees`` participates because
#: differently-bounded enumerations produce different ``trees`` lists
#: (protocol v7).
CacheKey = Tuple[str, int, str, Tuple[str, ...], Optional[str], Optional[int]]


class CacheStats:
    """Hit/miss/eviction counters, reported by the ``metrics`` command."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:
        return f"CacheStats({self.snapshot()})"


class ResultCache:
    """A bounded LRU mapping cache keys to response payloads.

    Thread-safe: one dispatcher's cache can be reached from two threads.
    A ``corpus-parse`` job on a ``Dispatcher(corpus_root=...)`` runs on
    its own :class:`~repro.corpus.pipeline.ParseJob` thread and parses
    through ``Dispatcher.handle``, while the caller's thread keeps
    serving — and its ``close``/``metrics`` touch this cache too.  Every
    operation that reads or mutates the entry map runs under one
    re-entrant lock — the critical sections are dict operations, far
    cheaper than the parses being cached, so a single lock is not a
    throughput concern.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        #: session name -> its live keys, so a grammar edit invalidates in
        #: O(that session's entries) instead of scanning the whole cache.
        self._by_session: Dict[str, Set[CacheKey]] = {}
        self._lock = threading.RLock()
        self.stats = CacheStats()

    def get(self, key: CacheKey) -> Tuple[bool, Optional[Any]]:
        """``(found, value)``; a hit refreshes the entry's recency."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return True, self._entries[key]
            self.stats.misses += 1
            return False, None

    def put(self, key: CacheKey, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._by_session.setdefault(key[0], set()).add(key)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._discard_index(evicted)
                self.stats.evictions += 1

    def invalidate(self, session: str) -> int:
        """Drop every entry belonging to ``session``; returns the count."""
        with self._lock:
            stale = self._by_session.pop(session, None)
            if not stale:
                return 0
            for key in stale:
                del self._entries[key]
            self.stats.invalidations += len(stale)
            return len(stale)

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._by_session.clear()
            self.stats.invalidations += count
            return count

    def _discard_index(self, key: CacheKey) -> None:
        # Always called with the lock held (put's eviction sweep).
        keys = self._by_session.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_session[key[0]]

    def check_consistency(self) -> None:
        """Assert the session index exactly covers the entry map.

        A torn update (the bug class the lock exists to prevent) leaves
        the two structures disagreeing; the concurrency regression tests
        call this after hammering the cache from many threads.
        """
        with self._lock:
            indexed = {key for keys in self._by_session.values() for key in keys}
            if indexed != set(self._entries):
                raise AssertionError(
                    f"cache index out of sync: {len(indexed)} indexed keys "
                    f"vs {len(self._entries)} entries"
                )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (
            f"ResultCache({len(self._entries)}/{self.capacity} entries, "
            f"hit_rate={self.stats.hit_rate:.2%})"
        )
