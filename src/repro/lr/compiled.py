"""The compiled control plane: memoized ACTION over a graph-backed control.

This is the control the production runtime reads, and the only one:
:class:`~repro.runtime.gss.GSSParser` takes a :class:`CompiledControl`,
probes its pre-decoded step cells in the deterministic stretch, calls its
``action``/``goto`` in the general sweep, and reads the START rules off
its :attr:`~CompiledControl.grammar`.  The paper-reference pool runs over
the lazy graph control itself.

The lazy/incremental generators make the parse-time ACTION/GOTO loop the
system's steady state, yet the graph controls recompute
``GraphControl._actions_of`` — a fresh tuple of :class:`Reduce`/
:class:`Shift` objects — on *every* call.  :class:`CompiledControl` wraps
any graph-backed control (conventional or lazy) and memoizes ACTION
results per ``(state, terminal)`` into per-state dicts of pre-built,
shared action tuples, so warm traffic pays two dict lookups per step.

Laziness and incremental MODIFY are preserved exactly:

* a cache miss delegates to the wrapped control, so an initial/dirty state
  is still expanded on demand (section 5) before its actions are cached;
* the wrapper subscribes to :meth:`Grammar.subscribe` and, on every edit,
  flushes precisely the entries of states the generator's MODIFY
  un-expanded (dirty/initial again) or the collector removed.  The
  generator subscribes to the grammar *before* the wrapper is built, so by
  the time the wrapper's observer runs the affected states are already
  marked and the flush is exact — no version counters, no over-flushing.

Only complete states ever have cache entries (ACTION completes a state
before returning), so a surviving entry is always consistent with the
current grammar.

**Step cells are SLR(1); ACTION stays LR(0).**  The pre-decoded step
cells gss's deterministic stretch reads drop every ``Reduce``
whose lookahead is outside FOLLOW of its left-hand side (the lookahead
Horspool adds to incremental generation).  Such a reduce can never lead
to shifting that lookahead or to accept, so the parser it would fork
dies within the same sweep: the frontier at every token boundary, the
trees and the checkpoints are those of the unfiltered run, and only the
work counters shrink.  :meth:`CompiledControl.action` itself keeps
returning the unfiltered LR(0) cell, so the general sweep, failure
records and diagnostics never see the filter.  FOLLOW is computed on the
first conflicted cell (a conflict-free grammar never pays for it) and,
once computed, recomputed on every edit; the cells of states reducing a
non-terminal whose FOLLOW set moved are re-encoded.

Every :class:`~repro.api.Language` builds one of these over its lazy
generator (``language.control``) for its ``gss`` engine, so every service
session and the REPL run through it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Optional

from ..grammar.analysis import GrammarAnalysis
from ..grammar.grammar import Grammar
from ..grammar.rules import Rule
from ..grammar.symbols import NonTerminal, Terminal
from .actions import ActionSet, Reduce, Shift
from .graph import ItemSetGraph
from .states import ItemSet

#: Pre-decoded single-action cells of :attr:`CompiledControl.fast_step_cache`:
#: a deterministic cell is stored as ``(STEP_SHIFT, target)``,
#: ``(STEP_REDUCE, rule, arity, lhs)`` or ``(STEP_ACCEPT,)``; a conflicted
#: or empty cell as ``False``.  gss's deterministic stretch dispatches on
#: the leading int without touching the action objects at all.
STEP_SHIFT = 1
STEP_REDUCE = 2
STEP_ACCEPT = 3

Step = Any  # Tuple[int, ...] or the False sentinel


def encode_step(actions: ActionSet) -> Step:
    """Pre-decode an ACTION cell into a step cell."""
    if len(actions) != 1:
        return False
    action = actions[0]
    if isinstance(action, Shift):
        return (STEP_SHIFT, action.target)
    if isinstance(action, Reduce):
        rule = action.rule
        return (STEP_REDUCE, rule, len(rule.rhs), rule.lhs)
    return (STEP_ACCEPT,)


class CompiledStats:
    """ACTION-cache counters, merged into ``Language.summary()`` and the
    service ``metrics`` command."""

    __slots__ = (
        "action_cache_hits",
        "action_cache_misses",
        "action_cache_flushes",
        "action_cache_evicted",
    )

    def __init__(self) -> None:
        self.action_cache_hits = 0
        self.action_cache_misses = 0
        self.action_cache_flushes = 0
        self.action_cache_evicted = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.action_cache_hits + self.action_cache_misses
        return self.action_cache_hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return f"CompiledStats({self.snapshot()})"


class CompiledControl:
    """Memoizing ACTION/GOTO wrapper around a graph-backed control.

    :meth:`action` answers the wrapped control's LR(0) cell;
    :attr:`fast_step_cache` holds the same cell filtered by FOLLOW (see
    the module docstring), so an LR(0) conflict that SLR(1) resolves is a
    single step for gss's deterministic stretch.

    Parameters
    ----------
    inner:
        The wrapped control (typically a
        :class:`~repro.core.lazy.LazyControl`); must expose
        ``start_state``/``action``/``goto`` and a ``graph``.
    grammar:
        The grammar to observe for invalidation, kept as :attr:`grammar`.
        Defaults to the wrapped graph's grammar.  The wrapper must be
        constructed *after* the generator that repairs the graph has
        subscribed, so its flush observes the post-MODIFY state types.
    """

    def __init__(self, inner: Any, grammar: Optional[Grammar] = None) -> None:
        self.inner = inner
        self.graph: ItemSetGraph = inner.graph
        self.stats = CompiledStats()
        #: state -> {terminal -> shared action tuple}: the memo itself,
        #: keyed by the state object (identity hash; the key also pins the
        #: state, and the flush re-checks its life-cycle type).  gss's
        #: stretch reads :attr:`fast_step_cache` instead, reporting the
        #: hits it took via :meth:`count_probe_hits`; misses must go
        #: through :meth:`action`.
        self.action_cache: Dict[ItemSet, Dict[Terminal, ActionSet]] = {}
        #: state -> {terminal -> pre-decoded step}; same keys as
        #: :attr:`action_cache`, kept in lock-step with it by both the miss
        #: path and the flush.  A conflicted cell is encoded after the
        #: FOLLOW filter.
        self.fast_step_cache: Dict[ItemSet, Dict[Terminal, Step]] = {}
        if grammar is None:
            grammar = self.graph.grammar
        self.grammar = grammar
        self._analysis = GrammarAnalysis(grammar)
        #: FOLLOW per non-terminal; ``None`` until a conflicted cell needs it.
        self._follow: Optional[Dict[NonTerminal, FrozenSet[Terminal]]] = None
        self._unsubscribe: Callable[[], None] = grammar.subscribe(self._on_edit)

    def close(self) -> None:
        """Detach from the grammar's observer list."""
        self._unsubscribe()

    # -- the control interface -------------------------------------------

    @property
    def start_state(self) -> ItemSet:
        return self.inner.start_state

    def action(self, state: ItemSet, symbol: Terminal) -> ActionSet:
        per_state = self.action_cache.get(state)
        if per_state is None:
            per_state = self.action_cache[state] = {}
        else:
            cached = per_state.get(symbol)
            if cached is not None:
                self.stats.action_cache_hits += 1
                return cached
        self.stats.action_cache_misses += 1
        # Delegation expands initial/dirty states on demand (section 5/6),
        # so after this call the state is complete and the result stable
        # until the next grammar edit flushes it.
        actions = self.inner.action(state, symbol)
        per_state[symbol] = actions
        steps = self.fast_step_cache.get(state)
        if steps is None:
            steps = {}
            self.fast_step_cache[state] = steps
        steps[symbol] = self._step(actions, symbol)
        return actions

    def _step(self, actions: ActionSet, symbol: Terminal) -> Step:
        """The step cell of ``actions`` on ``symbol``: a conflict keeps
        only the reduces whose lhs FOLLOW contains ``symbol``."""
        if len(actions) < 2:
            return encode_step(actions)
        follow = self._follow
        if follow is None:
            follow = self._follow = self._analysis.follow_sets()
        return encode_step(
            tuple(
                action
                for action in actions
                if not isinstance(action, Reduce)
                or symbol in follow.get(action.rule.lhs, ())
            )
        )

    def count_probe_hits(self, hits: int) -> None:
        """Credit ``hits`` direct :attr:`action_cache` probes to the stats.

        gss's stretch, which bypasses :meth:`action`, reports its hit
        batches here so ``metrics`` still reflects the real hit rate.
        """
        self.stats.action_cache_hits += hits

    def goto(self, state: ItemSet, symbol: NonTerminal) -> ItemSet:
        # GOTO is a single dict probe on a complete state (Appendix A
        # guarantees completeness).  Non-complete states have empty
        # transitions, so every irregular case — missing transition,
        # unexpanded state, accept sentinel — misses the probe and falls
        # through to the wrapped control's strict error handling.
        target = state.transitions.get(symbol)
        if isinstance(target, ItemSet):
            return target
        return self.inner.goto(state, symbol)

    # -- precise invalidation ----------------------------------------------

    def _on_edit(self, _grammar: Grammar, _rule: Rule, _added: bool) -> None:
        """Flush entries of states this MODIFY un-expanded or removed.

        The generator's own observer already ran (it subscribed first), so
        every affected state is dirty/initial — or gone from the graph —
        by now.  Entries of untouched complete states survive: a MODIFY
        only costs the cache what it cost the graph.  If FOLLOW was ever
        computed, it is recomputed, and the step cells of surviving
        states that reduce a non-terminal whose FOLLOW set moved are
        re-encoded from their (still valid) LR(0) cells.
        """
        graph = self.graph
        stale = [
            state
            for state in self.action_cache
            if state.needs_expansion or state not in graph
        ]
        for state in stale:
            del self.action_cache[state]
            self.fast_step_cache.pop(state, None)
        self.stats.action_cache_flushes += 1
        self.stats.action_cache_evicted += len(stale)
        old = self._follow
        if old is None:
            return
        follow = self._follow = self._analysis.follow_sets()
        moved = {
            nonterminal
            for nonterminal in old.keys() | follow.keys()
            if old.get(nonterminal) != follow.get(nonterminal)
        }
        if not moved:
            return
        for state, steps in self.fast_step_cache.items():
            if any(rule.lhs in moved for rule in state.reductions):
                for symbol, actions in self.action_cache[state].items():
                    if len(actions) > 1:  # only conflicts are filtered
                        steps[symbol] = self._step(actions, symbol)

    # -- introspection -----------------------------------------------------

    def cached_states(self) -> int:
        return len(self.action_cache)

    def cached_cells(self) -> int:
        return sum(len(per_state) for per_state in self.action_cache.values())

    def __repr__(self) -> str:
        return (
            f"CompiledControl({self.cached_states()} states, "
            f"{self.cached_cells()} cells, hit_rate={self.stats.hit_rate:.2f})"
        )
