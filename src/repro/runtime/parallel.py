"""PAR-PARSE: the (pseudo-)parallel LR parser of section 3.2.

A dynamically varying pool of simple LR parsers runs over the input.  All
parsers are synchronized on shift actions: the pool ``this_sweep`` holds
parsers that still have to act on the current symbol, ``next_sweep`` those
already waiting for the next one.  The paper's LRparser object has a
single field, its stack, so a parser here *is* its top
:class:`~repro.runtime.stacks.StackCell`.  When ``ACTION`` returns several
actions the parser is *copied* per action — an O(1) operation because
parse stacks are shared cons chains (:mod:`repro.runtime.stacks`).

:func:`sweep_symbol` is the one general sweep over one input symbol, and
:meth:`PoolParser.run` is the one loop that drives it, after an
Elkhound-style deterministic stretch (a plain LR loop while exactly one
parser is live).  Given :class:`Checkpoints`, the same loop starts at a
recorded token boundary, records the frontier at every boundary it
reaches, and stops once that frontier matches the base run's — the
mechanism behind :mod:`repro.runtime.incremental`.  A plain and a
checkpointed parse therefore take the same steps and report the same
:class:`ParseStats`.

Deviations from the paper's listing, each deliberate and documented:

* **Tree building.**  The listing only recognizes; the measurement protocol
  of section 7 builds parse trees, so shift pushes a leaf and reduce pushes
  a hash-consed :class:`~repro.runtime.forest.ParseNode`.
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
from ..lr.compiled import STEP_REDUCE, STEP_SHIFT, encode_step
from ..lr.states import ItemSet
from .deadline import CHECK_MASK, active_deadline
from .errors import SweepLimitExceeded
from .forest import Forest, TreeNode
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
    """Where (and in which configurations) a rejected parse died.

    ``token_index`` indexes the *input* token the pool could not act on;
    an index equal to the input length means the pool died on the
    end-marker (unexpected end of input).  ``stacks`` are the parser
    stacks alive at the *start* of the fatal sweep — replaying their
    (lookahead-independent) LR(0) reduce chains visits every state the
    sweep could reach, whose shift terminals are exactly the viable
    continuations a diagnostic should report.  ``states`` are the death
    sites themselves (states whose ACTION row was empty on ``symbol``).
    """

    __slots__ = ("token_index", "symbol", "stacks", "states")

    def __init__(
        self,
        token_index: int,
        symbol: Terminal,
        stacks: Tuple = (),
        states: Tuple = (),
    ) -> None:
        self.token_index = token_index
        self.symbol = symbol
        self.stacks = stacks
        self.states = states

    def __repr__(self) -> str:
        return (
            f"ParseFailure(token_index={self.token_index}, "
            f"symbol={self.symbol!s}, stacks={len(self.stacks)})"
        )


class ParseResult:
    """Outcome of a parallel parse.

    ``trees`` holds one root per *distinct* accepted derivation; an
    unambiguous sentence yields exactly one, an ambiguous one several.
    ``accepted`` is the paper's return value: at least one simple parser
    accepted.  On rejection, ``failure`` records where the pool died
    (:class:`ParseFailure`); it is ``None`` for accepted inputs.
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
    prefetched: Optional[Tuple[Any, Any]] = None,
) -> Tuple[Tuple[StackCell, ...], List[Any], List[StackCell]]:
    """One shift-synchronized sweep of PAR-PARSE over ``symbol``.

    ``stacks`` are the live parsers facing the symbol at input index
    ``position``.  Returns ``(next frontier, dead states, accepting
    stacks)``: the parsers that shifted the symbol, the states whose
    ACTION row was empty on it (the death sites a diagnostic reads), and
    the parsers that accepted.  Reduces feed back into the current sweep
    behind a seen-set seeded with ``stacks``; shifts deduplicate into the
    next frontier.  ``prefetched`` is a ``(state, actions)`` cell the
    caller already computed for one of ``stacks``; ``trace`` records every
    move.  Work counters are added to ``stats``.

    The single general sweep behind :meth:`PoolParser.run`.
    """
    control_action = control.action
    control_goto = control.goto
    prefetched_state, prefetched_actions = prefetched or (None, None)
    this_sweep: List[StackCell] = list(stacks)
    # Configurations already alive in this sweep; used to drop exact
    # duplicates produced by converging forks.  A stack cell *is* its
    # signature (incrementally hashed at push time), so membership tests
    # cost O(1) instead of an O(depth) tuple walk.
    seen = set(this_sweep)
    next_seen: Set[StackCell] = set()
    next_sweep: List[StackCell] = []
    dead_states: List[Any] = []
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
        if prefetched_actions is not None and state is prefetched_state:
            actions = prefetched_actions
            prefetched_actions = None
        else:
            actions = control_action(state, symbol)
        n_action_calls += 1
        if not actions:
            # The paper's error action: this parser dies here.  The state
            # is remembered so a rejection can report what *would* have
            # been accepted instead.
            if state not in dead_states:
                dead_states.append(state)
            continue
        if len(actions) > 1:
            n_forks += len(actions) - 1

        for action in actions:
            # "for each action a copy of the parser is made and the action
            # is performed on this copy" — copying is just reusing the
            # immutable stack pointer.
            if isinstance(action, Shift):
                leaf = forest.leaf(symbol, position) if forest else None
                new_stack = StackCell(action.target, stack, leaf)
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
    return tuple(next_sweep), dead_states, accepting


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


#: Frontier at one token boundary: the live stacks *before* consuming the
#: token at that index (``None`` marks boundaries the run never reached).
Frontier = Optional[Tuple[StackCell, ...]]


class Checkpoints:
    """The frontier log of one checkpointed :meth:`PoolParser.run`.

    ``frontiers[i]`` holds the live stacks before input token ``i``; the
    run starts from ``frontiers[start]`` (the start state at boundary 0)
    and records every boundary it reaches.  With ``base_frontiers`` (the
    log of an earlier run over the input before an edit that shifted
    later positions by ``delta``), from boundary ``watch_from`` on the run
    stops as soon as its frontier equals the base's at the matching
    boundary, and ``converged_at`` names that boundary.
    """

    __slots__ = (
        "frontiers",
        "start",
        "base_frontiers",
        "delta",
        "watch_from",
        "converged_at",
    )

    def __init__(
        self,
        frontiers: List[Frontier],
        start: int = 0,
        base_frontiers: Sequence[Frontier] = (),
        delta: int = 0,
        watch_from: int = 0,
    ) -> None:
        self.frontiers = frontiers
        self.start = start
        self.base_frontiers = base_frontiers
        self.delta = delta
        self.watch_from = watch_from
        self.converged_at: Optional[int] = None

    def reached(self, boundary: int, frontier: Tuple[StackCell, ...]) -> bool:
        """Record ``frontier`` at ``boundary``; True once it re-converges.

        Convergence is cheap because a :class:`StackCell` *is* its own
        O(1) signature: comparing frontiers is a small set comparison,
        and the underlying ``__eq__`` walk stops at the first physically
        shared cell.
        """
        self.frontiers[boundary] = frontier
        old_index = boundary - self.delta
        if boundary < self.watch_from or not 0 <= old_index < len(self.base_frontiers):
            return False
        old = self.base_frontiers[old_index]
        if old is None or len(old) != len(frontier) or set(old) != set(frontier):
            return False
        self.converged_at = boundary
        return True


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
        forest: Optional[Forest] = None,
        checkpoints: Optional[Checkpoints] = None,
    ) -> ParseResult:
        """PAR-PARSE over ``tokens``: the one loop behind every pool parse.

        ``forest`` is the hash-consing forest a tree-mode run builds into,
        fresh by default.  With ``checkpoints`` the run starts at
        ``checkpoints.start``, records the frontier at every token
        boundary, and stops early when it re-converges with the base run
        (see :class:`Checkpoints`); a converged result carries neither
        acceptance nor a failure record — the caller adopts the base's.
        """
        sentence: List[Terminal] = list(tokens)
        sentence.append(END)

        stats = ParseStats()
        if build_trees and forest is None:
            forest = Forest()
        grammar = self.grammar
        accepted_trees: Dict[TreeNode, None] = {}
        max_depth = stack_depth_limit(len(sentence) - 1, grammar)

        # The live parsers facing the next symbol.  Stacks are immutable
        # cons cells, so a frontier is O(live parsers) and shares
        # everything; the frontier at the start of the final sweep goes
        # into the failure record.
        position = 0 if checkpoints is None else checkpoints.start
        frontier = (
            checkpoints.frontiers[position]
            if checkpoints is not None and position
            else (StackCell(self.control.start_state),)
        )
        sweep_stacks = frontier
        # States whose ACTION row came back empty during the last general
        # sweep: if the pool dies, exactly the death sites a diagnostic
        # reads the expected terminals off.
        dead_states: List[Any] = []

        # Hot-loop locals: the ACTION/GOTO loop below runs once per parser
        # step under warm service traffic, so attribute lookups that are
        # invariant across the whole run are hoisted out of it.
        control = self.control
        control_action = control.action
        control_goto = control.goto
        max_sweep_steps = self.max_sweep_steps
        sentence_length = len(sentence)
        # Cooperative request deadline (service layer).  Read once: the
        # scope installed by the dispatcher outlives the whole run, and a
        # single local makes the per-step poll a None check.
        deadline = active_deadline()
        # The deterministic stretch (below) bails back to the general
        # sweep after this many reduces on one symbol: a cyclic grammar
        # loops without net stack growth, and only the general sweep's
        # seen-set can converge it the way the paper's duplicate elision
        # does.  Scaled generously so legitimate unit/epsilon cascades
        # never bail.
        fast_mode = trace is None
        nonterminal_count = len(grammar.nonterminals) if grammar is not None else 0
        fast_reduce_budget = 64 + 4 * (nonterminal_count + 2)
        # Zero-call probe surface: a compiled control (or a parse table)
        # exposes its pre-decoded step cells, so the fast stretch reads
        # memo dicts directly instead of paying a method call per step;
        # the hits taken this way are credited back below.
        step_cache = getattr(control, "fast_step_cache", None)
        credit_hits = getattr(control, "count_probe_hits", None)
        steps_get = step_cache.get if step_cache is not None else None
        # A compiled control wraps graph states (ItemSets with a
        # transitions dict), so GOTO can be probed directly as well.
        graph_states = getattr(control, "action_cache", None) is not None
        # Stretch step counters, folded into ``stats`` before returning
        # (the general sweep adds its own).
        fast_calls = 0
        fast_shifts = 0
        fast_reduces = 0
        fast_hits = 0
        n_sweeps = 0

        while frontier and position < sentence_length:
            # A token boundary: the one place (with the shift in the
            # stretch below) a checkpointed run records and converges.
            if checkpoints is not None and checkpoints.reached(position, frontier):
                break
            symbol = sentence[position]
            position += 1
            n_sweeps += 1
            if deadline is not None and deadline.expired():
                raise deadline.exceed(position - 1)
            sweep_stacks = frontier

            # ACTION result carried from the stretch into the general
            # sweep on a bail, so controls without a step cache don't
            # compute the same conflicted cell twice.
            prefetched = None

            # -- deterministic stretch --------------------------------------
            # Elkhound-style LR/GLR hybrid: while exactly one parser is
            # live and ACTION is single-valued, run a plain LR loop across
            # symbols with no forking, no signature sets, and no pool
            # bookkeeping.  Warm deterministic traffic spends almost all
            # its steps here; the general sweep takes over the moment a
            # conflict, an error, or a suspected cycle appears.
            if fast_mode and len(frontier) == 1:
                stack = frontier[0]
                # Config at the start of the sweep currently being
                # processed (one store per shift): the failure record
                # must see the pre-reduce-chain stack, not the bail point.
                stretch_start = stack
                # The parser accepted, or a checkpointed run converged.
                retired = False
                reduces_here = 0
                while True:
                    state = stack.state
                    step = None
                    if steps_get is not None:
                        # The step cache is keyed by the state object
                        # itself (identity hash): one dict probe yields
                        # the pre-decoded deterministic step.
                        per_state = steps_get(state)
                        if per_state is not None:
                            step = per_state.get(symbol)
                            # A False (conflicted) cell bails to the
                            # general sweep, whose ACTION call scores the
                            # hit — crediting it here too would
                            # double-count the same logical lookup.
                            if step is not None and step is not False:
                                fast_hits += 1
                    if step is None:
                        # Cold cell (or a control without a step cache):
                        # the ACTION call populates compiled caches as a
                        # side effect, and the inline encode keeps the
                        # stretch available to every control.
                        actions = control_action(state, symbol)
                        step = encode_step(actions)
                        if step is False:
                            # Hand the computed cell to the general sweep
                            # rather than recomputing it there.
                            prefetched = (state, actions)
                            break
                    if step is False:
                        break  # fork or error: the general sweep decides
                    fast_calls += 1
                    kind = step[0]
                    if kind == STEP_SHIFT:
                        leaf = forest.leaf(symbol, position - 1) if forest else None
                        stack = StackCell(step[1], stack, leaf)
                        fast_shifts += 1
                        if checkpoints is not None and checkpoints.reached(
                            position, (stack,)
                        ):
                            retired = True
                            break
                        # A shift never consumes the end-marker ($ cannot
                        # occur in a rule), so the next position is valid:
                        # stay in the stretch and fetch the next symbol.
                        symbol = sentence[position]
                        position += 1
                        n_sweeps += 1
                        if (
                            deadline is not None
                            and (position & CHECK_MASK) == 0
                            and deadline.expired()
                        ):
                            raise deadline.exceed(position - 1)
                        reduces_here = 0
                        stretch_start = stack
                        continue
                    if kind == STEP_REDUCE:
                        rule = step[1]
                        arity = step[2]
                        lhs = step[3]
                        if forest is None:
                            below = stack
                            for _ in range(arity):
                                if below is None:
                                    raise IndexError(
                                        "pop past the bottom of the parse stack"
                                    )
                                below = below.below
                            if below is None:
                                raise IndexError("pop removed the start state")
                            node = None
                        else:
                            below, children = stack.pop(arity)
                            node = forest.node(rule, children)
                        if graph_states:
                            # Appendix A: the state below a reduction is
                            # complete, so GOTO is this one dict probe;
                            # anything irregular (None, the accept
                            # sentinel) goes through the control's strict
                            # error handling.
                            goto_state = below.state.transitions.get(lhs)
                            if goto_state.__class__ is not ItemSet:
                                goto_state = control_goto(below.state, lhs)
                        else:
                            goto_state = control_goto(below.state, lhs)
                        stack = StackCell(goto_state, below, node)
                        fast_reduces += 1
                        reduces_here += 1
                        if stack.depth > max_depth:
                            raise SweepLimitExceeded(
                                f"parse stack exceeded depth {max_depth} at "
                                f"position {position - 1}; the grammar has "
                                f"hidden left recursion or is cyclic",
                                position=position - 1,
                                symbol=symbol,
                            )
                        if reduces_here > fast_reduce_budget:
                            break  # possible cycle: let the seen-set decide
                        continue
                    # STEP_ACCEPT: the parser retires
                    collect_accepted((stack,), grammar, forest, stats, accepted_trees)
                    retired = True
                    break
                if retired:
                    frontier = ()
                    continue
                # bail: the general sweep re-reads ACTION for this symbol
                # (its call is the one counted, and the direct probe above
                # was already credited as a hit).
                frontier = (stack,)
                sweep_stacks = (stretch_start,)

            frontier, dead_states, accepting = sweep_symbol(
                frontier,
                symbol,
                position - 1,
                control,
                forest,
                max_depth,
                max_sweep_steps,
                stats,
                deadline,
                trace,
                prefetched,
            )
            collect_accepted(accepting, grammar, forest, stats, accepted_trees)

        stats.sweeps = n_sweeps
        stats.action_calls += fast_calls
        stats.shifts += fast_shifts
        stats.reduces += fast_reduces
        if fast_hits and credit_hits is not None:
            credit_hits(fast_hits)
        failure: Optional[ParseFailure] = None
        accepted = stats.accepting_parsers > 0
        if not accepted and (checkpoints is None or checkpoints.converged_at is None):
            # position - 1 indexes the symbol of the final sweep; if that
            # symbol is the end-marker the index equals the input length.
            failure = ParseFailure(
                position - 1, symbol, sweep_stacks, tuple(dead_states)
            )
        return ParseResult(accepted, tuple(accepted_trees), stats, failure)
