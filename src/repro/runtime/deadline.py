"""Cooperative request deadlines for the parse loops.

A pathological input (deep ambiguity, a near-cyclic grammar under the
sweep budget) can hold a worker for seconds — under the sharded service
that wedges every session pinned to the shard.  This module gives the
service a cooperative cancellation point: the dispatcher installs a
:class:`Deadline` for the current thread around a request, and the hot
step loops (:class:`~repro.runtime.parallel.PoolParser`,
:class:`~repro.runtime.gss.GSSParser`) poll it every few hundred steps,
raising :class:`~repro.runtime.errors.DeadlineExceeded` with the tokens
consumed so far.

The deadline is thread-local, matching the service's execution model:
the inline shard's worker thread (and each process-shard child's serve
loop) runs one request at a time, so "the active deadline" is unambiguous
and the parsers need no new parameters — code that never installs a
deadline pays one ``None`` check per polled step.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .errors import DeadlineExceeded

__all__ = ["Deadline", "DeadlineExceeded", "active_deadline", "deadline_scope"]

#: How many parser steps pass between clock reads.  Power of two so the
#: poll is a mask, not a modulo; small enough that even slow grammars
#: overshoot a 50 ms deadline by far less than the 10x budget the chaos
#: suite pins.
CHECK_MASK = 0xFF

_LOCAL = threading.local()


class Deadline:
    """A wall-clock budget: ``expired()`` is one monotonic read."""

    __slots__ = ("expires_at", "ms")

    def __init__(self, ms: float) -> None:
        self.ms = ms
        self.expires_at = time.monotonic() + ms / 1000.0

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def remaining_ms(self) -> float:
        return max(0.0, (self.expires_at - time.monotonic()) * 1000.0)

    def exceed(
        self,
        tokens_consumed: Optional[int] = None,
        stage: str = "rendering trees",
    ) -> "DeadlineExceeded":
        """The error to raise; ``tokens_consumed`` is None past the parse,
        in a layer that runs on a finished forest: ``stage`` names it."""
        progress = (
            f"while {stage}"
            if tokens_consumed is None
            else f"after consuming {tokens_consumed} token(s)"
        )
        return DeadlineExceeded(
            f"deadline of {self.ms:g} ms exceeded {progress}",
            deadline_ms=self.ms,
            tokens_consumed=tokens_consumed,
        )

    def __repr__(self) -> str:
        return f"Deadline({self.ms:g}ms, {self.remaining_ms():.1f}ms left)"


def active_deadline() -> Optional[Deadline]:
    """The deadline governing the current thread, or ``None``."""
    return getattr(_LOCAL, "deadline", None)


@contextmanager
def deadline_scope(ms: Optional[float]) -> Iterator[Optional[Deadline]]:
    """Install a deadline of ``ms`` milliseconds for the current thread.

    ``None`` installs nothing (the scope is then a no-op, so callers can
    pass an optional request field straight through).  Scopes nest; the
    inner scope wins for its duration and the outer one is restored on
    exit — a nested scope never *extends* an outer deadline's wall-clock
    expiry, it only changes which object the parsers poll.
    """
    if ms is None:
        yield None
        return
    previous = getattr(_LOCAL, "deadline", None)
    deadline = Deadline(ms)
    _LOCAL.deadline = deadline
    try:
        yield deadline
    finally:
        if previous is None:
            del _LOCAL.deadline
        else:
            _LOCAL.deadline = previous
