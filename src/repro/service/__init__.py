"""The multi-session parse service.

Section 1 motivates IPG with *"an environment where language definitions
are developed (and modified) interactively"* by many users at once.  This
package is that environment's server side: a long-lived process that
multiplexes many named grammar sessions, answers a line-delimited JSON
request protocol, caches parse results aggressively, and persists session
snapshots for warm restarts.

========================  ====================================================
``service.workspace``     :class:`Workspace` — the registry of named
                          :class:`ParseSession` objects (a Language each)
``service.cache``         :class:`ResultCache` — LRU over
                          ``(session, version, mode, tokens)`` keys
``service.protocol``      request decoding, response encoding, error types
``service.dispatcher``    :class:`Dispatcher` — one JSON request in, one
                          JSON response (with ``time``/``cache``) out
``service.snapshot``      session <-> JSON persistence (grammar text, sorts
                          and version; states regenerate lazily on restore)
``service.server``        the stdio serve loop and batch runner
``service.scheduler``     :class:`Scheduler` — session-sharded worker pool
                          (one inline shard or N process shards) on one
                          event loop, with batching, bounded
                          backpressure, per-shard p50/p99 metrics and
                          graceful drain
``service.net``           asyncio TCP/UNIX front end on the scheduler's
                          loop (pipelined connections, ordered
                          responses, SIGTERM drain)
========================  ====================================================

Quickstart::

    from repro.service import Dispatcher

    d = Dispatcher()
    d.handle({"cmd": "open", "session": "s1",
              "grammar": "START ::= B\\nB ::= true"})
    response = d.handle({"cmd": "parse", "session": "s1", "tokens": "true"})
    assert response["accepted"] and "time" in response
"""

from .cache import CacheStats, ResultCache
from .dispatcher import Dispatcher
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceError,
    SessionNotFound,
    encode,
    iter_requests,
)
from .net import BackgroundServer, ParseServer, run_server
from .scheduler import Scheduler, merge_global
from .server import decode_line, run_batch, serve
from .snapshot import (
    SESSION_FORMAT_VERSION,
    load_session,
    save_session,
    session_from_dict,
    session_to_dict,
)
from .workspace import ParseSession, Workspace

__all__ = [
    "BackgroundServer",
    "CacheStats",
    "Dispatcher",
    "ParseServer",
    "ParseSession",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ResultCache",
    "SESSION_FORMAT_VERSION",
    "Scheduler",
    "ServiceError",
    "SessionNotFound",
    "Workspace",
    "decode_line",
    "encode",
    "iter_requests",
    "load_session",
    "merge_global",
    "run_batch",
    "run_server",
    "save_session",
    "serve",
    "session_from_dict",
    "session_to_dict",
]
