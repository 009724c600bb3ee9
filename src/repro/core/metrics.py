"""Instrumentation: invariant probes and the laziness metrics of the paper.

Two consumers:

* tests — :class:`ControlProbe` wraps any parser control and records every
  ACTION/GOTO call, asserting the Appendix A invariant (GOTO only on
  complete states) as a side effect;
* benchmarks and the committed ``BENCH_*.json`` files (see README,
  "Observability") — :func:`table_fraction` measures how much of the
  full parse table a lazy run actually generated (the §5.2 "60 percent"
  statistic), and :func:`graph_summary` condenses a graph's state counts.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..grammar.grammar import Grammar
from ..grammar.symbols import NonTerminal, Terminal
from ..lr.actions import ActionSet
from ..lr.graph import ItemSetGraph
from ..lr.states import ItemSet, StateType


class AppendixAViolation(AssertionError):
    """GOTO observed on a non-complete state — Appendix A says: impossible."""


class ControlProbe:
    """A transparent control wrapper that counts and checks every call."""

    def __init__(self, control: Any) -> None:
        self.control = control
        self.action_calls = 0
        self.goto_calls = 0
        self.expansions_triggered = 0
        self.goto_states_seen: List[Any] = []

    @property
    def start_state(self) -> Any:
        return self.control.start_state

    @property
    def graph(self) -> Optional[ItemSetGraph]:
        return getattr(self.control, "graph", None)

    def action(self, state: Any, symbol: Terminal) -> ActionSet:
        self.action_calls += 1
        was_pending = isinstance(state, ItemSet) and state.needs_expansion
        result = self.control.action(state, symbol)
        if was_pending:
            self.expansions_triggered += 1
        return result

    def goto(self, state: Any, symbol: NonTerminal) -> Any:
        self.goto_calls += 1
        if isinstance(state, ItemSet) and state.type is not StateType.COMPLETE:
            raise AppendixAViolation(
                f"GOTO called on {state.type.value} state #{state.uid} "
                f"for symbol {symbol} — the Appendix A invariant is broken"
            )
        self.goto_states_seen.append(state)
        return self.control.goto(state, symbol)

    def snapshot(self) -> Dict[str, int]:
        return {
            "action_calls": self.action_calls,
            "goto_calls": self.goto_calls,
            "expansions_triggered": self.expansions_triggered,
        }


class LatencyStats:
    """Per-key call counters, cumulative wall time, and tail latency.

    The parse service records one ``(command, seconds)`` sample per request
    it dispatches; ``snapshot`` renders the aggregate the ``metrics``
    protocol command reports.  Keys are arbitrary strings, so the same
    class can aggregate per-command, per-session, or per-phase timings.

    With ``window > 0`` the last ``window`` samples per key are kept and
    ``snapshot`` additionally reports ``p50``/``p99`` over that sliding
    window — what the sharded scheduler publishes per shard.  All
    operations are guarded by a lock: the scheduler's shards record into
    shared instances from their worker threads while ``metrics`` requests
    snapshot them from another.
    """

    def __init__(self, window: int = 0) -> None:
        self._window = window
        self._counts: Dict[str, int] = {}
        self._seconds: Dict[str, float] = {}
        self._samples: Dict[str, Deque[float]] = {}
        self._lock = threading.Lock()

    def record(self, key: str, seconds: float) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1
            self._seconds[key] = self._seconds.get(key, 0.0) + seconds
            if self._window:
                samples = self._samples.get(key)
                if samples is None:
                    samples = self._samples[key] = deque(maxlen=self._window)
                samples.append(seconds)

    @property
    def total_count(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    @property
    def total_seconds(self) -> float:
        with self._lock:
            return sum(self._seconds.values())

    def percentiles(
        self, key: str, points: Tuple[float, ...] = (0.5, 0.99)
    ) -> Dict[str, float]:
        """``{"p50": ..., "p99": ...}`` over the key's sample window.

        Empty when the key has no samples (or the window is disabled).
        Uses the nearest-rank method — adequate for operational tail
        latency, and exact at the window boundaries.
        """
        with self._lock:
            ordered = sorted(self._samples.get(key, ()))
        if not ordered:
            return {}
        report = {}
        for point in points:
            # Nearest-rank: the ceil keeps the estimate on the high side
            # (round() would bias p50 low on even window sizes).
            rank = min(
                len(ordered) - 1,
                max(0, math.ceil(point * len(ordered)) - 1),
            )
            report[f"p{int(point * 100)}"] = round(ordered[rank], 6)
        return report

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``key -> {count, seconds, mean[, p50, p99]}`` per recorded key."""
        with self._lock:
            keys = sorted(self._counts)
            counts = dict(self._counts)
            seconds_by_key = dict(self._seconds)
        report: Dict[str, Dict[str, float]] = {}
        for key in keys:
            count = counts[key]
            seconds = seconds_by_key[key]
            entry = {
                "count": count,
                "seconds": round(seconds, 6),
                "mean": round(seconds / count, 6) if count else 0.0,
            }
            entry.update(self.percentiles(key))
            report[key] = entry
        return report

    def __repr__(self) -> str:
        return (
            f"LatencyStats({self.total_count} calls, "
            f"{self.total_seconds:.3f}s)"
        )


# The full-table state count per (grammar, revision): building the
# reference graph is a complete conventional generation, far too costly
# to re-run for every `metrics` request.  Keyed weakly on the Grammar
# (ItemSetGraph never subscribes, so the throwaway build has no side
# effects on the live grammar) and invalidated by revision, which every
# successful MODIFY bumps.
_REFERENCE_SIZES: "weakref.WeakKeyDictionary[Grammar, Tuple[int, int]]" = (
    weakref.WeakKeyDictionary()
)
_REFERENCE_LOCK = threading.Lock()


def full_table_states(grammar: Grammar) -> int:
    """States in the conventional (fully expanded) table, memoized.

    The memo holds one ``(revision, count)`` pair per live grammar; a
    grammar edit invalidates it by bumping ``revision``.
    """
    revision = grammar.revision
    with _REFERENCE_LOCK:
        cached = _REFERENCE_SIZES.get(grammar)
    if cached is not None and cached[0] == revision:
        return cached[1]
    reference = ItemSetGraph(grammar)
    reference.expand_all()
    total = len(reference)
    with _REFERENCE_LOCK:
        _REFERENCE_SIZES[grammar] = (revision, total)
    return total


def states_materialized(lazy_graph: ItemSetGraph) -> int:
    """Completed (fully expanded) states in a lazy graph — the §5.2 numerator."""
    return sum(1 for s in lazy_graph.states() if s.is_complete)


def table_fraction(lazy_graph: ItemSetGraph, grammar: Optional[Grammar] = None) -> float:
    """Completed lazy states / states of the *full* parse table.

    The §5.2 measurement: after lazily parsing some input, how much of the
    conventional table was actually generated?  The full-table denominator
    (not part of the system under test) is memoized per grammar version —
    see :func:`full_table_states`.
    """
    total = full_table_states(grammar if grammar is not None else lazy_graph.grammar)
    if total == 0:
        return 0.0
    return states_materialized(lazy_graph) / total


def graph_summary(graph: ItemSetGraph) -> Dict[str, int]:
    """State counts by type plus cumulative work counters."""
    states = graph.states()
    return {
        "states": len(states),
        "complete": sum(1 for s in states if s.is_complete),
        "initial": sum(1 for s in states if s.is_initial),
        "dirty": sum(1 for s in states if s.is_dirty),
        "transitions": sum(len(s.transitions) for s in states),
        **graph.stats.snapshot(),
    }
