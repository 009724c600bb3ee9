"""Named fault points for chaos-testing the serving layer.

Production failure modes — a crashed shard child, a stalled queue, a
half-written frame, a vanished client — are exactly the paths CI never
exercises by accident.  This module gives each of them a *named fault
point* that the serving code consults at the right moment; a test (or an
operator, via ``REPRO_FAULTS``) arms a point a bounded number of times
and the next pass through that code path fails deliberately.

The catalog (each name is checked at one code site):

``kill-child``
    ``ProcessExecutor.begin`` in :mod:`repro.service.executors` SIGKILLs
    its child before writing a batch to it — the supervisor's respawn +
    journal-replay path.
``delay``
    The shard worker sleeps ``delay_ms`` before serving a batch —
    latency injection for deadline and p99 assertions.
``queue-stall``
    The shard worker sleeps ``delay_ms`` *before draining its queue*, so
    the queue fills and the bounded-backpressure (``overloaded``) path
    runs under load.

``delay`` and ``queue-stall`` sleep with ``asyncio.sleep`` in a coroutine
the shard's pump hands over to: the sleeping shard stalls, while the
scheduler's event loop keeps serving every other shard, socket and probe.
``drop-connection``
    The TCP front end aborts the client's transport right after decoding
    a request — mid-pipeline disconnects.
``corrupt-frame``
    The TCP writer truncates one response frame — a torn write toward
    the client (the server must stay healthy; the client sees bad JSON).

Arming is process-local and thread-safe.  ``REPRO_FAULTS`` is parsed
once at import: a comma-separated list of ``point[:times[:delay_ms]]``
specs, e.g. ``REPRO_FAULTS="kill-child:1,delay:3:50"``.  Tests prefer
the API (:func:`arm` / :func:`reset`) so state never leaks across tests.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Dict, Optional

__all__ = [
    "POINTS",
    "active",
    "arm",
    "armed",
    "disarm",
    "fire",
    "load_env",
    "reset",
    "sleep_if_armed",
]

#: Every fault point the serving code consults.
POINTS = frozenset(
    {"kill-child", "delay", "drop-connection", "corrupt-frame", "queue-stall"}
)

#: Environment variable holding fault specs for process-level activation.
ENV_VAR = "REPRO_FAULTS"


class _Fault:
    __slots__ = ("remaining", "delay_ms")

    def __init__(self, times: Optional[int], delay_ms: float) -> None:
        #: ``None`` means unbounded (fires until disarmed).
        self.remaining = times
        self.delay_ms = delay_ms


_LOCK = threading.Lock()
_ARMED: Dict[str, _Fault] = {}


def _require_point(point: str) -> None:
    if point not in POINTS:
        raise ValueError(
            f"unknown fault point {point!r} — known: {', '.join(sorted(POINTS))}"
        )


def arm(point: str, times: Optional[int] = 1, delay_ms: float = 0.0) -> None:
    """Arm ``point`` to fire ``times`` times (``None`` = until disarmed)."""
    _require_point(point)
    if times is not None and times < 1:
        raise ValueError(f"times must be positive or None, got {times}")
    if delay_ms < 0:
        raise ValueError(f"delay_ms must be non-negative, got {delay_ms}")
    with _LOCK:
        _ARMED[point] = _Fault(times, delay_ms)


def disarm(point: str) -> None:
    _require_point(point)
    with _LOCK:
        _ARMED.pop(point, None)


def reset() -> None:
    """Disarm every fault point (test teardown)."""
    with _LOCK:
        _ARMED.clear()


def active() -> Dict[str, Dict[str, object]]:
    """Snapshot of the armed points (for health/debug surfaces)."""
    with _LOCK:
        return {
            point: {"remaining": fault.remaining, "delay_ms": fault.delay_ms}
            for point, fault in _ARMED.items()
        }


def armed(point: str) -> bool:
    """True while ``point`` is armed (without consuming a firing)."""
    return point in _ARMED


def fire(point: str) -> bool:
    """Consume one firing of ``point``; True when the fault should happen.

    The hot-path cost when nothing is armed is one dict lookup under an
    uncontended lock — the serving code calls this unconditionally.
    """
    with _LOCK:
        fault = _ARMED.get(point)
        if fault is None:
            return False
        if fault.remaining is not None:
            fault.remaining -= 1
            if fault.remaining <= 0:
                del _ARMED[point]
        return True


def delay_of(point: str) -> float:
    """The armed delay for ``point`` in milliseconds (0.0 if unarmed)."""
    with _LOCK:
        fault = _ARMED.get(point)
        return fault.delay_ms if fault is not None else 0.0


async def sleep_if_armed(point: str) -> bool:
    """Fire ``point`` and sleep its ``delay_ms`` without blocking the
    event loop; True when it fired."""
    delay_ms = delay_of(point)
    if not fire(point):
        return False
    if delay_ms > 0:
        await asyncio.sleep(delay_ms / 1000.0)
    return True


def load_env(value: Optional[str] = None) -> int:
    """Arm points from a ``REPRO_FAULTS`` spec string; returns the count.

    ``value=None`` reads the environment.  Malformed specs raise — a
    silently ignored chaos schedule would fake fault coverage.
    """
    if value is None:
        value = os.environ.get(ENV_VAR, "")
    count = 0
    for spec in value.split(","):
        spec = spec.strip()
        if not spec:
            continue
        parts = spec.split(":")
        point = parts[0]
        if len(parts) > 3:
            raise ValueError(
                f"bad {ENV_VAR} spec {spec!r} — want point[:times[:delay_ms]]"
            )
        times: Optional[int] = 1
        if len(parts) > 1:
            times = None if parts[1] in ("inf", "*") else int(parts[1])
        delay_ms = float(parts[2]) if len(parts) > 2 else 0.0
        arm(point, times=times, delay_ms=delay_ms)
        count += 1
    return count


load_env()
