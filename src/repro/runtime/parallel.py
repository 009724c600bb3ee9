"""PAR-PARSE: the (pseudo-)parallel LR parser of section 3.2.

A dynamically varying pool of simple LR parsers runs over the input.  All
parsers are synchronized on shift actions: the pool ``this_sweep`` holds
parsers that still have to act on the current symbol, ``next_sweep`` those
already waiting for the next one.  The paper's LRparser object has a
single field, its stack, so a parser here *is* its top
:class:`~repro.runtime.stacks.StackCell`.  When ``ACTION`` returns several
actions the parser is *copied* per action — an O(1) operation because
parse stacks are shared cons chains (:mod:`repro.runtime.stacks`).

:func:`sweep_symbol` is the one sweep over one input symbol, and
:meth:`PoolParser.run` is the loop that drives it: the plain PAR-PARSE of
the listing, the paper reference.  The production runtime, with its
deterministic stretch and checkpoints, is :mod:`repro.runtime.gss`.

Deviations from the paper's listing, each deliberate and documented:

* **Tree building.**  The listing only recognizes; the measurement protocol
  of section 7 builds parse trees, so shift pushes the terminal it
  consumed (a leaf is its interned terminal, with no position) and reduce
  pushes a hash-consed :class:`~repro.runtime.forest.ParseNode`.
* **Duplicate-parser elision.**  Two parsers whose stacks carry the same
  states *and* the same trees are interchangeable, so only one is kept.
  This loses nothing (their futures are identical) and keeps converging
  ambiguous reductions from multiplying the pool.
* **Sweep budget.**  Cyclic grammars (``A ::= A``) can reduce forever
  without consuming input.  Tomita's algorithm — and therefore IPG —
  restricts itself to finitely ambiguous grammars (section 2.1); the
  budget raises :class:`~repro.runtime.errors.SweepLimitExceeded` instead
  of hanging when that restriction is violated.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..grammar.grammar import Grammar
from ..grammar.symbols import END, Terminal
from ..lr.actions import Accept, Reduce, Shift
from .deadline import CHECK_MASK, active_deadline
from .errors import SweepLimitExceeded
from .forest import Forest, ParseForest, TreeNode
from .lr_parse import recover_start_trees
from .stacks import StackCell
from .trace import Trace, TraceEvent


class ParseStats:
    """Work counters for one PAR-PARSE run (reported by the benches)."""

    __slots__ = (
        "sweeps",
        "action_calls",
        "shifts",
        "reduces",
        "forks",
        "max_live_parsers",
        "duplicates_dropped",
        "accepting_parsers",
    )

    def __init__(self) -> None:
        self.sweeps = 0
        self.action_calls = 0
        self.shifts = 0
        self.reduces = 0
        self.forks = 0
        self.max_live_parsers = 1
        self.duplicates_dropped = 0
        self.accepting_parsers = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return f"ParseStats({self.snapshot()})"


class ParseFailure:
    """Where a rejected parse died, and which states its last sweep visited.

    ``token_index`` indexes the *input* token the parser could not act
    on; an index equal to the input length means it died on the
    end-marker (unexpected end of input).  ``states`` are every state the
    fatal sweep over ``symbol`` visited: the sweep-start configurations
    plus their reduce closure.  LR(0) reduces are lookahead-independent,
    so these states' shift terminals are exactly the viable continuations
    a diagnostic reports.  The pool and gss record the same thing.
    """

    __slots__ = ("token_index", "symbol", "states")

    def __init__(
        self, token_index: int, symbol: Terminal, states: Tuple = ()
    ) -> None:
        self.token_index = token_index
        self.symbol = symbol
        self.states = states

    def __repr__(self) -> str:
        return (
            f"ParseFailure(token_index={self.token_index}, "
            f"symbol={self.symbol!s}, states={len(self.states)})"
        )


class ParseResult:
    """Outcome of a parallel parse.

    ``trees`` holds one root per *distinct* accepted derivation; an
    unambiguous sentence yields exactly one, an ambiguous one several.
    ``accepted`` is the paper's return value: at least one simple parser
    accepted.  On rejection, ``failure`` records where the pool died
    (:class:`ParseFailure`); it is ``None`` for accepted inputs.
    ``forest`` views ``trees`` the way a gss result presents its roots.
    """

    __slots__ = ("accepted", "trees", "stats", "failure")

    def __init__(
        self,
        accepted: bool,
        trees: Tuple[TreeNode, ...],
        stats: ParseStats,
        failure: Optional[ParseFailure] = None,
    ) -> None:
        self.accepted = accepted
        self.trees = trees
        self.stats = stats
        self.failure = failure

    @property
    def forest(self) -> ParseForest:
        return ParseForest(self.trees)

    @property
    def is_ambiguous(self) -> bool:
        return len(self.trees) > 1

    @property
    def tree(self) -> Optional[TreeNode]:
        """The unique tree, if there is exactly one."""
        return self.trees[0] if len(self.trees) == 1 else None

    def __bool__(self) -> bool:
        return self.accepted

    def __repr__(self) -> str:
        return (
            f"ParseResult(accepted={self.accepted}, "
            f"trees={len(self.trees)}, sweeps={self.stats.sweeps})"
        )


def stack_depth_limit(tokens: int, grammar: Optional[Grammar]) -> int:
    """The deepest parse stack a run over ``tokens`` input tokens may build.

    Structural termination guard: for a non-cyclic grammar, the LR stack
    holds at most one cell per consumed token plus a bounded run of
    epsilon-derived non-terminals between tokens.  A stack deeper than
    that witnesses hidden left recursion / a cyclic grammar — the
    configurations Tomita's algorithm excludes — and raising beats growing
    without bound.
    """
    nonterminals = len(grammar.nonterminals) if grammar is not None else 0
    return (tokens + 3) * max(16, nonterminals + 2)


def sweep_symbol(
    stacks: Sequence[StackCell],
    symbol: Terminal,
    position: int,
    control: Any,
    forest: Optional[Forest],
    max_depth: int,
    max_sweep_steps: int,
    stats: ParseStats,
    deadline: Any = None,
    trace: Optional[Trace] = None,
) -> Tuple[Tuple[StackCell, ...], Set[StackCell], List[StackCell]]:
    """One shift-synchronized sweep of PAR-PARSE over ``symbol``.

    ``stacks`` are the live parsers facing the symbol at input index
    ``position``.  Returns ``(next frontier, seen, accepting stacks)``:
    the parsers that shifted the symbol, every parser the sweep acted on
    (``stacks`` plus the reduce closure; their states are the failure
    record if the pool dies here), and the parsers that accepted.
    Reduces feed back into the current sweep behind ``seen``; shifts
    deduplicate into the next frontier.  ``trace`` records every move.
    Work counters are added to ``stats``.

    The one sweep behind :meth:`PoolParser.run`.
    """
    control_action = control.action
    control_goto = control.goto
    this_sweep: List[StackCell] = list(stacks)
    # Configurations already alive in this sweep; used to drop exact
    # duplicates produced by converging forks.  A stack cell *is* its
    # signature (incrementally hashed at push time), so membership tests
    # cost O(1) instead of an O(depth) tuple walk.
    seen = set(this_sweep)
    next_seen: Set[StackCell] = set()
    next_sweep: List[StackCell] = []
    accepting: List[StackCell] = []
    # Local counters, folded into ``stats`` once at the end: attribute
    # increments are hot-loop costs.
    steps = 0
    n_action_calls = 0
    n_shifts = 0
    n_reduces = 0
    n_forks = 0
    n_duplicates = 0
    max_live = 0
    while this_sweep:
        stack = this_sweep.pop()
        steps += 1
        if steps > max_sweep_steps:
            raise SweepLimitExceeded(
                f"more than {max_sweep_steps} parser steps on one input "
                f"symbol (position {position}, {symbol!s}); the grammar is "
                f"most likely cyclic",
                position=position,
                symbol=symbol,
            )
        if deadline is not None and (steps & CHECK_MASK) == 0 and deadline.expired():
            raise deadline.exceed(position)
        if stack.depth > max_depth:
            raise SweepLimitExceeded(
                f"parse stack exceeded depth {max_depth} at position "
                f"{position}; the grammar has hidden left recursion or is "
                f"cyclic",
                position=position,
                symbol=symbol,
            )
        state = stack.state
        actions = control_action(state, symbol)
        n_action_calls += 1
        if not actions:
            # The paper's error action: this parser dies here.
            continue
        if len(actions) > 1:
            n_forks += len(actions) - 1

        for action in actions:
            # "for each action a copy of the parser is made and the action
            # is performed on this copy" — copying is just reusing the
            # immutable stack pointer.
            if isinstance(action, Shift):
                new_stack = StackCell(
                    action.target, stack, symbol if forest else None
                )
                if new_stack in next_seen:
                    n_duplicates += 1
                    continue
                next_seen.add(new_stack)
                next_sweep.append(new_stack)
                n_shifts += 1
                if trace is not None:
                    trace.record(
                        TraceEvent(
                            "shift",
                            state,
                            symbol=symbol,
                            target=action.target,
                            position=position,
                        )
                    )
            elif isinstance(action, Reduce):
                rule = action.rule
                below, children = stack.pop(len(rule.rhs))
                goto_state = control_goto(below.state, rule.lhs)
                node = forest.node(rule, children) if forest else None
                new_stack = StackCell(goto_state, below, node)
                if new_stack in seen:
                    n_duplicates += 1
                    continue
                seen.add(new_stack)
                this_sweep.append(new_stack)
                n_reduces += 1
                if trace is not None:
                    trace.record(
                        TraceEvent(
                            "reduce",
                            state,
                            rule=rule,
                            target=goto_state,
                            position=position,
                        )
                    )
            else:
                assert isinstance(action, Accept)
                accepting.append(stack)
                if trace is not None:
                    trace.record(TraceEvent("accept", state, position=position))

        live = len(this_sweep) + len(next_sweep)
        if live > max_live:
            max_live = live

    stats.action_calls += n_action_calls
    stats.shifts += n_shifts
    stats.reduces += n_reduces
    stats.forks += n_forks
    stats.duplicates_dropped += n_duplicates
    if max_live > stats.max_live_parsers:
        stats.max_live_parsers = max_live
    return tuple(next_sweep), seen, accepting


def collect_accepted(
    accepting: Iterable[StackCell],
    grammar: Optional[Grammar],
    forest: Optional[Forest],
    stats: ParseStats,
    trees: Dict[TreeNode, None],
) -> None:
    """Count accepting parsers and add their START derivations to ``trees``.

    ``trees`` is keyed on the forest's hash-consed nodes themselves:
    within one run the forest interns equal derivations into the *same*
    object, so node identity is the dedup key, and equal trees from
    distinct accepting parsers cannot double-report.
    """
    for stack in accepting:
        stats.accepting_parsers += 1
        if forest is not None and grammar is not None:
            for tree in recover_start_trees(stack, grammar.start_rules(), forest):
                trees.setdefault(tree)


class PoolParser:
    """PAR-PARSE packaged as a reusable engine.

    Parameters
    ----------
    control:
        ``start_state`` / ``action`` / ``goto`` provider; pass a lazy
        control to get generation-during-parsing (section 5).
    grammar:
        Needed for START-rule tree recovery; optional in recognition mode.
    max_sweep_steps:
        Work budget per input symbol; exceeding it means the grammar is
        cyclic (infinitely ambiguous) and raises ``SweepLimitExceeded``.
    """

    def __init__(
        self,
        control: Any,
        grammar: Optional[Grammar] = None,
        max_sweep_steps: int = 1_000_000,
    ) -> None:
        self.control = control
        self.grammar = grammar
        self.max_sweep_steps = max_sweep_steps

    # -- public API ------------------------------------------------------

    def recognize(self, tokens: Iterable[Terminal]) -> bool:
        return self.run(tokens, build_trees=False).accepted

    def recognize_result(self, tokens: Iterable[Terminal]) -> ParseResult:
        """Recognition that keeps the full result (stats and failure)."""
        return self.run(tokens, build_trees=False)

    def parse(
        self,
        tokens: Iterable[Terminal],
        trace: Optional[Trace] = None,
    ) -> ParseResult:
        return self.run(tokens, build_trees=True, trace=trace)

    # -- the algorithm ---------------------------------------------------

    def run(
        self,
        tokens: Iterable[Terminal],
        build_trees: bool,
        trace: Optional[Trace] = None,
    ) -> ParseResult:
        """PAR-PARSE over ``tokens``: one :func:`sweep_symbol` per symbol."""
        sentence: List[Terminal] = list(tokens)
        sentence.append(END)

        stats = ParseStats()
        forest = Forest() if build_trees else None
        grammar = self.grammar
        accepted_trees: Dict[TreeNode, None] = {}
        max_depth = stack_depth_limit(len(sentence) - 1, grammar)
        # Cooperative request deadline (service layer).  Read once: the
        # scope installed by the dispatcher outlives the whole run, and a
        # single local makes the per-symbol poll a None check.
        deadline = active_deadline()

        # The live parsers facing the next symbol.  Stacks are immutable
        # cons cells, so a frontier is O(live parsers) and shares
        # everything.
        frontier: Tuple[StackCell, ...] = (StackCell(self.control.start_state),)
        # Every parser the last sweep acted on: if the pool dies, their
        # states are the failure record.
        seen: Set[StackCell] = set()
        position = 0
        symbol = END
        while frontier and position < len(sentence):
            symbol = sentence[position]
            position += 1
            stats.sweeps += 1
            if deadline is not None and deadline.expired():
                raise deadline.exceed(position - 1)
            frontier, seen, accepting = sweep_symbol(
                frontier,
                symbol,
                position - 1,
                self.control,
                forest,
                max_depth,
                self.max_sweep_steps,
                stats,
                deadline,
                trace,
            )
            collect_accepted(accepting, grammar, forest, stats, accepted_trees)

        failure: Optional[ParseFailure] = None
        accepted = stats.accepting_parsers > 0
        if not accepted:
            # position - 1 indexes the symbol of the final sweep; if that
            # symbol is the end-marker the index equals the input length.
            failure = ParseFailure(
                position - 1, symbol, tuple({stack.state: None for stack in seen})
            )
        return ParseResult(accepted, tuple(accepted_trees), stats, failure)
