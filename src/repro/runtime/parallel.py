"""PAR-PARSE: the (pseudo-)parallel LR parser of section 3.2.

A dynamically varying pool of simple LR parsers runs over the input.  All
parsers are synchronized on shift actions: the pool ``this_sweep`` holds
parsers that still have to act on the current symbol, ``next_sweep`` those
already waiting for the next one.  When ``ACTION`` returns several actions
the parser is *copied* per action — an O(1) operation because parse stacks
are shared cons chains (:mod:`repro.runtime.stacks`).

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

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..grammar.grammar import Grammar
from ..grammar.symbols import END, Terminal
from ..lr.actions import Accept, Reduce, Shift
from ..lr.compiled import STEP_REDUCE, STEP_SHIFT, encode_step
from ..lr.states import ItemSet
from .deadline import CHECK_MASK, active_deadline
from .errors import SweepLimitExceeded
from .forest import Forest, TreeNode
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


class _Parser:
    """The paper's LRparser object: a single field, the stack."""

    __slots__ = ("stack",)

    def __init__(self, stack: StackCell) -> None:
        self.stack = stack


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
        legacy_signatures: bool = False,
    ) -> None:
        self.control = control
        self.grammar = grammar
        self.max_sweep_steps = max_sweep_steps
        #: Use the original O(depth) tuple signatures instead of the O(1)
        #: incremental cell hashes.  Only the hot-path benchmark sets
        #: this, to keep the seed's behaviour measurable as a baseline.
        self.legacy_signatures = legacy_signatures

    # -- public API ------------------------------------------------------

    def recognize(self, tokens: Iterable[Terminal]) -> bool:
        return self._run(tokens, build_trees=False, trace=None).accepted

    def recognize_result(self, tokens: Iterable[Terminal]) -> ParseResult:
        """Recognition that keeps the full result (stats and failure)."""
        return self._run(tokens, build_trees=False, trace=None)

    def parse(
        self,
        tokens: Iterable[Terminal],
        trace: Optional[Trace] = None,
    ) -> ParseResult:
        return self._run(tokens, build_trees=True, trace=trace)

    # -- the algorithm ---------------------------------------------------

    def _run(
        self,
        tokens: Iterable[Terminal],
        build_trees: bool,
        trace: Optional[Trace],
    ) -> ParseResult:
        sentence: List[Terminal] = list(tokens)
        sentence.append(END)

        stats = ParseStats()
        forest = Forest() if build_trees else None
        accepted = False
        # Keyed on the forest's hash-consed nodes themselves: within one
        # run the forest interns equal derivations into the *same* object,
        # so node identity — not a transient id() — is the dedup key, and
        # equal trees from distinct accepting parsers cannot double-report.
        accepted_trees: Dict[TreeNode, None] = {}

        # Structural termination guard: for a non-cyclic grammar, the LR
        # stack holds at most one cell per consumed token plus a bounded
        # run of epsilon-derived non-terminals between tokens.  A stack
        # deeper than that witnesses hidden left recursion / a cyclic
        # grammar — the configurations Tomita's algorithm excludes — and
        # raising beats growing without bound.
        nonterminal_count = (
            len(self.grammar.nonterminals) if self.grammar is not None else 0
        )
        max_depth = (len(sentence) + 2) * max(16, nonterminal_count + 2)

        start_parser = _Parser(StackCell(self.control.start_state))
        next_sweep: List[_Parser] = [start_parser]
        position = 0

        # Hot-loop locals: the ACTION/GOTO loop below runs once per parser
        # step under warm service traffic, so attribute lookups that are
        # invariant across the whole run are hoisted out of it.
        control_action = self.control.action
        control_goto = self.control.goto
        max_sweep_steps = self.max_sweep_steps
        sentence_length = len(sentence)
        legacy = self.legacy_signatures
        tracing = trace is not None
        # Cooperative request deadline (service layer).  Read once: the
        # scope installed by the dispatcher outlives the whole run, and a
        # single local makes the per-step poll a None check.
        deadline = active_deadline()
        # The deterministic stretch (below) bails back to the general pool
        # machinery after this many reduces on one symbol: a cyclic
        # grammar loops without net stack growth, and only the general
        # sweep's seen-set can converge it the way the paper's duplicate
        # elision does.  Scaled generously so legitimate unit/epsilon
        # cascades never bail.
        fast_mode = not tracing and not legacy
        fast_reduce_budget = 64 + 4 * (nonterminal_count + 2)
        # Zero-call probe surface: a compiled (or dense-table) control
        # exposes its pre-decoded step cells, so the fast stretch reads
        # memo dicts directly instead of paying a method call per step;
        # the hits taken this way are credited back below.
        step_cache = getattr(self.control, "fast_step_cache", None)
        credit_hits = getattr(self.control, "count_probe_hits", None)
        steps_get = step_cache.get if step_cache is not None else None
        # A compiled control wraps graph states (ItemSets with a
        # transitions dict), so GOTO can be probed directly as well.
        graph_states = getattr(self.control, "action_cache", None) is not None
        # Local step counters (both loops), folded into ``stats`` before
        # returning — attribute increments are hot-loop costs too.
        fast_calls = 0
        fast_shifts = 0
        fast_reduces = 0
        fast_hits = 0
        n_action_calls = 0
        n_shifts = 0
        n_reduces = 0
        n_forks = 0
        n_duplicates = 0
        n_sweeps = 0
        max_live = 1
        # States whose ACTION row came back empty during the current
        # general sweep.  Only the last sweep's list survives the run; if
        # the pool dies it is exactly the set of death sites a diagnostic
        # reads the expected terminals off.  Allocated lazily: the happy
        # path never touches it.
        dead_states: Optional[List[Any]] = None
        # The stacks alive at the start of the current sweep, for the
        # failure record.  Stacks are immutable cons cells, so keeping
        # references is O(live parsers) per symbol and shares everything.
        sweep_stacks: List[StackCell] = [start_parser.stack]

        while next_sweep and position < sentence_length:
            symbol = sentence[position]
            position += 1
            n_sweeps += 1
            if deadline is not None and deadline.expired():
                raise deadline.exceed(position - 1)
            dead_states = None
            sweep_stacks = [p.stack for p in next_sweep]

            # ACTION result carried from the stretch into the general
            # sweep on a bail, so controls without a step cache don't
            # compute the same conflicted cell twice.
            prefetched = None
            prefetched_state = None

            # -- deterministic stretch --------------------------------------
            # Elkhound-style LR/GLR hybrid: while exactly one parser is
            # live and ACTION is single-valued, run a plain LR loop across
            # symbols with no forking, no signature sets, and no pool
            # bookkeeping.  Warm deterministic traffic spends almost all
            # its steps here; the general machinery below takes over the
            # moment a conflict, an error, or a suspected cycle appears.
            if fast_mode and len(next_sweep) == 1:
                stack = next_sweep[0].stack
                # Config at the start of the sweep currently being
                # processed (one store per shift): the failure record
                # must see the pre-reduce-chain stack, not the bail point.
                stretch_start = stack
                outcome = 0  # 0 = bail to the general machinery
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
                            # general machinery, whose ACTION call scores
                            # the hit — crediting it here too would
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
                            prefetched = actions
                            prefetched_state = state
                            break
                    if step is False:
                        break  # fork or error: the pool machinery decides
                    fast_calls += 1
                    kind = step[0]
                    if kind == STEP_SHIFT:
                        leaf = forest.leaf(symbol, position - 1) if forest else None
                        stack = StackCell(step[1], stack, leaf)
                        fast_shifts += 1
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
                    # STEP_ACCEPT
                    accepted = True
                    stats.accepting_parsers += 1
                    if forest is not None and self.grammar is not None:
                        from .lr_parse import recover_start_trees

                        for tree in recover_start_trees(
                            stack, self.grammar.start_rules(), forest
                        ):
                            accepted_trees.setdefault(tree)
                    outcome = 2  # parser retired on accept
                    break
                if outcome == 2:
                    next_sweep = []
                    continue
                next_sweep = [_Parser(stack)]
                sweep_stacks = [stretch_start]
                # bail: fall through; the general sweep below re-reads
                # ACTION for this symbol (its call is the one counted, and
                # the direct probe above was already credited as a hit).

            this_sweep, next_sweep = next_sweep, []

            # NOTE: the general sweep below is mirrored (minus the fast
            # stretch, tracing, and legacy signatures) by
            # IncrementalParser._sweep in repro/runtime/incremental.py —
            # a semantic change here (seen-set seeding, budget/depth
            # guards, dead-state recording, duplicate elision) must be
            # applied there too, or reparse diverges from parse.
            # tests/property/test_incremental_reparse.py pins the
            # equivalence differentially.

            # Configurations already alive in this sweep; used to drop
            # exact duplicates produced by converging forks.  A stack cell
            # *is* its signature (incrementally hashed at push time), so
            # membership tests cost O(1) instead of an O(depth) tuple walk.
            seen: Set[Any]
            next_seen: Set[Any] = set()
            if legacy:
                seen = {
                    self._legacy_signature(p.stack, build_trees) for p in this_sweep
                }
            else:
                seen = {p.stack for p in this_sweep}

            steps = 0
            while this_sweep:
                parser = this_sweep.pop()
                steps += 1
                if steps > max_sweep_steps:
                    raise SweepLimitExceeded(
                        f"more than {self.max_sweep_steps} parser steps on one "
                        f"input symbol (position {position - 1}, {symbol!s}); "
                        f"the grammar is most likely cyclic",
                        position=position - 1,
                        symbol=symbol,
                    )
                if (
                    deadline is not None
                    and (steps & CHECK_MASK) == 0
                    and deadline.expired()
                ):
                    raise deadline.exceed(position - 1)
                stack = parser.stack
                state = stack.state
                if stack.depth > max_depth:
                    raise SweepLimitExceeded(
                        f"parse stack exceeded depth {max_depth} at position "
                        f"{position - 1}; the grammar has hidden left "
                        f"recursion or is cyclic",
                        position=position - 1,
                        symbol=symbol,
                    )
                if prefetched is not None and state is prefetched_state:
                    actions = prefetched
                    prefetched = None
                else:
                    actions = control_action(state, symbol)
                n_action_calls += 1
                if not actions:
                    # The paper's error action: this parser dies here.  The
                    # state is remembered so a rejection can report what
                    # *would* have been accepted instead.
                    if dead_states is None:
                        dead_states = []
                    if state not in dead_states:
                        dead_states.append(state)
                    continue
                if len(actions) > 1:
                    n_forks += len(actions) - 1

                for action in actions:
                    # "for each action a copy of the parser is made and the
                    # action is performed on this copy" — copying is just
                    # reusing the immutable stack pointer.
                    if isinstance(action, Shift):
                        leaf = forest.leaf(symbol, position - 1) if forest else None
                        new_stack = StackCell(action.target, stack, leaf)
                        sig = (
                            new_stack
                            if not legacy
                            else self._legacy_signature(new_stack, build_trees)
                        )
                        if sig in next_seen:
                            n_duplicates += 1
                            continue
                        next_seen.add(sig)
                        next_sweep.append(_Parser(new_stack))
                        n_shifts += 1
                        if tracing:
                            trace.record(
                                TraceEvent(
                                    "shift",
                                    state,
                                    symbol=symbol,
                                    target=action.target,
                                    position=position - 1,
                                )
                            )
                    elif isinstance(action, Reduce):
                        rule = action.rule
                        below, children = stack.pop(len(rule.rhs))
                        goto_state = control_goto(below.state, rule.lhs)
                        node = forest.node(rule, children) if forest else None
                        new_stack = StackCell(goto_state, below, node)
                        sig = (
                            new_stack
                            if not legacy
                            else self._legacy_signature(new_stack, build_trees)
                        )
                        if sig in seen:
                            n_duplicates += 1
                            continue
                        seen.add(sig)
                        this_sweep.append(_Parser(new_stack))
                        n_reduces += 1
                        if tracing:
                            trace.record(
                                TraceEvent(
                                    "reduce",
                                    state,
                                    rule=rule,
                                    target=goto_state,
                                    position=position - 1,
                                )
                            )
                    else:
                        assert isinstance(action, Accept)
                        accepted = True
                        stats.accepting_parsers += 1
                        if tracing:
                            trace.record(
                                TraceEvent("accept", state, position=position - 1)
                            )
                        if forest is not None and self.grammar is not None:
                            from .lr_parse import recover_start_trees

                            for tree in recover_start_trees(
                                parser.stack, self.grammar.start_rules(), forest
                            ):
                                accepted_trees.setdefault(tree)

                live = len(this_sweep) + len(next_sweep)
                if live > max_live:
                    max_live = live

        stats.sweeps = n_sweeps
        stats.action_calls = n_action_calls + fast_calls
        stats.shifts = n_shifts + fast_shifts
        stats.reduces = n_reduces + fast_reduces
        stats.forks = n_forks
        stats.duplicates_dropped = n_duplicates
        stats.max_live_parsers = max_live
        if fast_hits and credit_hits is not None:
            credit_hits(fast_hits)
        failure: Optional[ParseFailure] = None
        if not accepted:
            # position - 1 indexes the symbol of the final sweep; if that
            # symbol is the end-marker the index equals the input length.
            failure = ParseFailure(
                position - 1,
                symbol,
                tuple(sweep_stacks),
                tuple(dead_states or ()),
            )
        return ParseResult(accepted, tuple(accepted_trees), stats, failure)

    @staticmethod
    def _legacy_signature(stack: StackCell, build_trees: bool) -> Tuple:
        """The seed's O(depth) signature tuples (benchmark baseline only)."""
        return stack.full_signature() if build_trees else stack.signature()
