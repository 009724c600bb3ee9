"""Hierarchical tracing spans with a bounded per-process ring buffer.

A span is a named, timed region of work with attributes and children:

    with obs.span("parse", engine="gss") as sp:
        ...
        sp.set(tokens=42)

Spans nest through a thread-local stack, so each service worker thread
builds its own tree without coordination; only finished *root* spans are
published, into a ring buffer guarded by one lock.  When tracing is off
(the default) :func:`span` returns a shared no-op handle without
allocating anything, which is what keeps the disabled path under the
hotpath-bench overhead gate.

Two things turn recording on:

* :func:`set_tracing` (or ``REPRO_OBS_TRACE=1`` in the environment)
  enables it process-wide — any thread's outermost :func:`span` becomes
  a root.
* :func:`trace` forces it for one region on the current thread only,
  which is how the service honours a per-request ``"trace": true`` flag
  without paying for every other request.

A configured slow-request threshold (see :mod:`repro.obs.slowlog`) also
activates recording — the log dumps span trees, so without spans it
could never fire.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "Span",
    "span",
    "trace",
    "annotate",
    "current_span",
    "set_tracing",
    "tracing_enabled",
    "recent_spans",
    "clear_spans",
    "set_ring_capacity",
]

_DEFAULT_RING = 256


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


_TRACING = _env_flag("REPRO_OBS_TRACE")
_RING_LOCK = threading.Lock()
_RING: Deque[Dict[str, Any]] = deque(maxlen=_env_int("REPRO_OBS_RING", _DEFAULT_RING))

_state = threading.local()


class Span:
    """One named, timed region: attributes, children, monotonic duration."""

    __slots__ = ("name", "attributes", "children", "started", "duration")

    recording = True

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.children: List["Span"] = []
        self.started = time.perf_counter()
        self.duration = 0.0

    def set(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def to_dict(self) -> Dict[str, Any]:
        """The span tree as JSON-able data (durations in seconds)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "duration": round(self.duration, 6),
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            stack[-1].children.append(self)
        stack.append(self)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.duration = time.perf_counter() - self.started
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if not stack:
            _publish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1000:.3f}ms, children={len(self.children)})"


class _NullSpan:
    """Shared do-nothing handle returned while tracing is disabled."""

    __slots__ = ()

    recording = False
    name = ""
    duration = 0.0
    attributes: Dict[str, Any] = {}
    children: List[Span] = []

    def set(self, **_attributes: Any) -> None:
        pass

    def to_dict(self) -> Dict[str, Any]:
        return {"name": "", "duration": 0.0}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


def _stack() -> List[Span]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    return stack


#: set by :func:`repro.obs.slowlog.set_slow_threshold` — the slow log
#: needs span trees to dump, so a threshold implies recording
_SLOW_ACTIVE = False


def _set_slow_active(enabled: bool) -> None:
    global _SLOW_ACTIVE
    _SLOW_ACTIVE = bool(enabled)


def _active() -> bool:
    if _TRACING or _SLOW_ACTIVE:
        return True
    if getattr(_state, "forced", 0):
        return True
    # inside an already-open span tree (tracing was flipped off mid-tree,
    # or a root was opened by trace()): keep attaching children
    return bool(getattr(_state, "stack", None))


def _publish(root: Span) -> None:
    payload = root.to_dict()
    with _RING_LOCK:
        _RING.append(payload)
    from . import slowlog

    slowlog.maybe_log(root)


def span(name: str, **attributes: Any):
    """A span context manager, or a shared no-op when tracing is off."""
    if not _active():
        return NULL_SPAN
    return Span(name, attributes)


class _Forced:
    """Context manager behind :func:`trace`: force-enable, open a root."""

    __slots__ = ("_span",)

    def __init__(self, name: str, attributes: Dict[str, Any]) -> None:
        self._span = Span(name, attributes)

    def __enter__(self) -> Span:
        _state.forced = getattr(_state, "forced", 0) + 1
        return self._span.__enter__()

    def __exit__(self, *exc: Any) -> None:
        try:
            self._span.__exit__(*exc)
        finally:
            _state.forced = max(0, getattr(_state, "forced", 1) - 1)


def trace(name: str, **attributes: Any) -> _Forced:
    """Open a span with recording forced on for the current thread."""
    return _Forced(name, attributes)


def current_span():
    """The innermost open span on this thread (NULL_SPAN when none)."""
    stack = getattr(_state, "stack", None)
    if stack:
        return stack[-1]
    return NULL_SPAN


def annotate(**attributes: Any) -> None:
    """Attach attributes to the innermost open span; no-op otherwise."""
    stack = getattr(_state, "stack", None)
    if stack:
        stack[-1].attributes.update(attributes)


def set_tracing(enabled: bool) -> None:
    """Process-wide switch: record every thread's outermost spans."""
    global _TRACING
    _TRACING = bool(enabled)


def tracing_enabled() -> bool:
    return _TRACING


def recent_spans(limit: Optional[int] = None) -> List[Dict[str, Any]]:
    """Finished root-span trees, oldest first (up to the ring capacity)."""
    with _RING_LOCK:
        items = list(_RING)
    if limit is not None and limit >= 0:
        items = items[-limit:]
    return items


def clear_spans() -> None:
    with _RING_LOCK:
        _RING.clear()


def set_ring_capacity(capacity: int) -> None:
    """Resize the root-span ring buffer (keeps the newest entries)."""
    global _RING
    capacity = max(1, int(capacity))
    with _RING_LOCK:
        _RING = deque(_RING, maxlen=capacity)
