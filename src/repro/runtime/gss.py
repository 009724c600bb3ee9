"""A graph-structured-stack (GSS) GLR parser with shared packed forests.

The paper's PAR-PARSE keeps one linear stack per parser, the simplified
presentation of Tomita's algorithm [Tom85].  Tomita's full algorithm — and
Rekers' refinement [Rek87] the authors' implementation is based on — merges
parsers that reach the same state on the same input position into a single
*graph-structured stack* node, so the number of live stack tops is bounded
by the number of parser states instead of growing with the amount of
ambiguity.

This module implements that merged representation.  Each reduction path
is walked once: by the edge-local reductions of Right-Nulled GLR (Scott &
Johnstone, TOPLAS 2006), an edge added to an existing vertex queues only
the examined vertices' paths that take it.  It also has a parse mode:

* **Shared packed forests.**  Every GSS edge carries a forest label: shift
  edges the interned :class:`~repro.grammar.symbols.Terminal` they
  consumed, reduction edges of the general sweep a
  :class:`~repro.runtime.forest.PackedNode` keyed by ``(lhs, start, end)``
  — Rekers-style packing per nonterminal span.  Ambiguous derivations of
  the same span collapse into one packed node, so the forest stays
  polynomial even when the tree count is exponential, and alternatives
  discovered late are visible to parents built earlier.  Reductions of
  the deterministic stretch are labelled with the plain parse node: no
  span they close can gain a second derivation.
* **Deterministic stretch.**  While exactly one stack top is live and
  the compiled step cache holds a single step (its cells are SLR(1):
  reduces outside FOLLOW are filtered out), the parser runs a plain LR
  loop — Elkhound's LR/GLR hybrid — and only falls back to the general
  graph sweep on a conflict, an empty cell, a merged stack region, or a
  suspected cycle.
* **Failure records.**  A rejected input carries a
  :class:`~repro.runtime.parallel.ParseFailure` listing the states the
  fatal sweep visited; since LR(0) reductions are lookahead-independent,
  their shift terminals are exactly the expected-set a diagnostic reports.

The recognizer remains the ablation subject of
``bench_ablation_pool_vs_gss`` and the property tests that cross-check
PAR-PARSE, GSS and Earley on random grammars.
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
from .forest import Forest, ParseForest, TreeNode
from .parallel import ParseFailure


class GSSNode:
    """One stack top (or interior vertex) of the graph-structured stack."""

    __slots__ = ("state", "edges", "labels", "position")

    def __init__(
        self,
        state: Any,
        position: int = 0,
        below: Optional["GSSNode"] = None,
        label: Optional[TreeNode] = None,
    ) -> None:
        self.state = state
        #: predecessor vertices (the cells "below" this one); ``below``
        #: is the first
        self.edges: List["GSSNode"] = [] if below is None else [below]
        #: forest label per edge (parallel to :attr:`edges`); ``None`` in
        #: recognition mode
        self.labels: List[Optional[TreeNode]] = [] if below is None else [label]
        #: tokens consumed when this vertex was created (the *end* of the
        #: span any reduction over it packs)
        self.position = position

    def __repr__(self) -> str:
        return f"GSSNode(state={getattr(self.state, 'uid', self.state)}, {len(self.edges)} edges)"


class GSSStats:
    """Work counters for one GSS run (reported by benches and engines)."""

    __slots__ = ("nodes_created", "edges_created", "reductions_applied", "paths_walked")

    def __init__(
        self,
        nodes_created: int = 0,
        edges_created: int = 0,
        reductions_applied: int = 0,
        paths_walked: int = 0,
    ) -> None:
        self.nodes_created = nodes_created
        self.edges_created = edges_created
        self.reductions_applied = reductions_applied
        #: reduction paths the general sweep walked; each is applied once
        self.paths_walked = paths_walked

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return f"GSSStats({self.snapshot()})"


class GSSResult:
    """Outcome of a GSS parse.

    ``forest`` is a :class:`~repro.runtime.forest.ParseForest` handle over
    the packed roots (``None`` in recognition mode or on rejection); the
    tree count is *not* materialized — it may be exponential in the input
    length.
    """

    __slots__ = ("accepted", "forest", "stats", "failure")

    def __init__(
        self,
        accepted: bool,
        forest: Optional[ParseForest],
        stats: GSSStats,
        failure: Optional[ParseFailure] = None,
    ) -> None:
        self.accepted = accepted
        self.forest = forest
        self.stats = stats
        self.failure = failure

    def __bool__(self) -> bool:
        return self.accepted

    def __repr__(self) -> str:
        return f"GSSResult(accepted={self.accepted}, forest={self.forest!r})"


class GSSParser:
    """GLR parsing over a merged stack graph.

    Parameters
    ----------
    control:
        ``start_state`` / ``action`` / ``goto`` provider; a compiled control
        (or a parse table) additionally exposes the step-cache probe
        surface the deterministic stretch reads.
    max_steps_per_token:
        Work budget per input symbol (cyclic-grammar guard).
    grammar:
        Needed for START-rule root recovery; optional in recognition mode.
    """

    def __init__(
        self,
        control: Any,
        max_steps_per_token: int = 1_000_000,
        grammar: Optional[Grammar] = None,
    ) -> None:
        self.control = control
        self.max_steps_per_token = max_steps_per_token
        self.grammar = grammar

    # -- public API ------------------------------------------------------

    def recognize(self, tokens: Iterable[Terminal]) -> bool:
        return self._run(tokens, build_trees=False).accepted

    def recognize_result(self, tokens: Iterable[Terminal]) -> GSSResult:
        """Recognition that keeps the full result (stats and failure)."""
        return self._run(tokens, build_trees=False)

    def parse(self, tokens: Iterable[Terminal]) -> GSSResult:
        if self.grammar is None:
            raise ValueError(
                "GSSParser.parse needs a grammar (START-rule recovery); "
                "construct with GSSParser(control, grammar=...)"
            )
        return self._run(tokens, build_trees=True)

    # -- the algorithm ---------------------------------------------------

    def _run(self, tokens: Iterable[Terminal], build_trees: bool) -> GSSResult:
        sentence: List[Terminal] = list(tokens)
        sentence.append(END)
        sentence_length = len(sentence)

        nodes_created = 1  # the start node below
        edges_created = 0
        reductions_applied = 0
        paths_walked = 0

        forest = Forest() if build_trees else None
        roots: Dict[TreeNode, None] = {}

        start_node = GSSNode(self.control.start_state, 0)
        frontier: Dict[Any, GSSNode] = {start_node.state: start_node}
        accepted = False
        deadline = active_deadline()

        # Hoisted hot-loop attributes and the compiled control's zero-call
        # probe surface (see PoolParser._run for the protocol).
        control_action = self.control.action
        control_goto = self.control.goto
        max_steps_per_token = self.max_steps_per_token
        step_cache = getattr(self.control, "fast_step_cache", None)
        steps_get = step_cache.get if step_cache is not None else None
        credit_hits = getattr(self.control, "count_probe_hits", None)
        graph_states = getattr(self.control, "action_cache", None) is not None
        fast_hits = 0
        nonterminal_count = (
            len(self.grammar.nonterminals) if self.grammar is not None else 16
        )
        fast_reduce_budget = 64 + 4 * (nonterminal_count + 2)

        position = 0
        # Fatal-sweep record for the failure diagnostic.
        failure_position = 0
        failure_symbol: Terminal = END
        failure_states: Tuple[Any, ...] = ()

        while frontier and position < sentence_length:
            symbol = sentence[position]
            if deadline is not None and deadline.expired():
                raise deadline.exceed(position)

            # ACTION result carried from the stretch into the general
            # sweep on a bail, so the conflicted cell is not recomputed.
            prefetched = None
            prefetched_state = None

            # -- deterministic stretch ----------------------------------
            # While the frontier is a single vertex and ACTION is
            # single-valued, run a plain LR loop over the graph: shifts
            # and reductions extend a linear chain of single-edge nodes,
            # with no worklist and no path enumeration.  Anything
            # irregular — a conflict, an empty cell, a merged region below
            # a reduction, a suspected cycle — bails to the general sweep
            # for the current symbol.
            if len(frontier) == 1:
                node = next(iter(frontier.values()))
                # Vertex at the start of the current symbol's processing
                # (one store per shift): a bail rewinds here so the
                # general sweep replays the whole reduce chain — its
                # visited-state record must cover the chain, and packed
                # hash-consing dedups the re-derived alternatives.
                stretch_start = node
                reduces_here = 0
                retired = False
                while True:
                    state = node.state
                    step = None
                    if steps_get is not None:
                        per_state = steps_get(state)
                        if per_state is not None:
                            step = per_state.get(symbol)
                            if step is not None and step is not False:
                                fast_hits += 1
                    if step is None:
                        # Cold cell: read the (FOLLOW-filtered) step the
                        # compiled control's ACTION just cached.
                        actions = control_action(state, symbol)
                        if graph_states:
                            step = steps_get(state)[symbol]
                        else:
                            step = encode_step(actions)
                        if step is False:
                            prefetched = actions
                            prefetched_state = state
                            break
                    if step is False:
                        break
                    kind = step[0]
                    if kind == STEP_SHIFT:
                        node = GSSNode(
                            step[1],
                            position + 1,
                            node,
                            symbol if forest is not None else None,
                        )
                        nodes_created += 1
                        edges_created += 1
                        position += 1
                        # A shift never consumes the end-marker, so the
                        # next symbol always exists.
                        symbol = sentence[position]
                        stretch_start = node
                        reduces_here = 0
                        if (
                            deadline is not None
                            and (position & CHECK_MASK) == 0
                            and deadline.expired()
                        ):
                            raise deadline.exceed(position - 1)
                        continue
                    if kind == STEP_REDUCE:
                        rule = step[1]
                        arity = step[2]
                        lhs = step[3]
                        base = node
                        chain_labels: List[Optional[TreeNode]] = []
                        linear = True
                        for _ in range(arity):
                            if len(base.edges) != 1:
                                linear = False
                                break
                            chain_labels.append(base.labels[0])
                            base = base.edges[0]
                        if not linear:
                            break  # merged region: the graph sweep decides
                        if graph_states:
                            goto_state = base.state.transitions.get(lhs)
                            if goto_state.__class__ is not ItemSet:
                                goto_state = control_goto(base.state, lhs)
                        else:
                            goto_state = control_goto(base.state, lhs)
                        # A plain node, not a one-alternative packed one:
                        # a span ending before this position never gains
                        # another derivation, and a bail replays this
                        # position's reductions in the sweep, which packs.
                        if forest is not None:
                            chain_labels.reverse()
                            label: Optional[TreeNode] = forest.node(
                                rule, chain_labels
                            )
                        else:
                            label = None
                        node = GSSNode(goto_state, position, base, label)
                        nodes_created += 1
                        edges_created += 1
                        reductions_applied += 1
                        # Only reduces of arity < 2 can loop without
                        # shrinking the chain (see PoolParser.run).
                        if arity < 2:
                            reduces_here += 1
                            if reduces_here > fast_reduce_budget:
                                # Possible cycle: the general sweep
                                # applies each path once, so it converges.
                                break
                        continue
                    # STEP_ACCEPT
                    accepted = True
                    if forest is not None:
                        self._collect_roots(node, forest, roots)
                    retired = True
                    break
                if retired:
                    frontier = {}
                    break
                frontier = {stretch_start.state: stretch_start}
                # fall through: the general sweep re-runs this symbol from
                # the sweep-start vertex, so its visited-state record (and
                # hence any failure diagnostic) covers the reduce chain the
                # stretch already walked; hash-consing dedups re-derived
                # forest alternatives.

            # -- general graph sweep ------------------------------------
            # Examining a vertex walks all its reduction paths; a later
            # edge queues the examined vertices' paths that take it.
            worklist: List[GSSNode] = list(frontier.values())
            # Walked paths waiting to be applied, one batch per rule walk.
            walks: List[Tuple[Any, List[Tuple[GSSNode, Tuple]]]] = []
            examined: List[Tuple[GSSNode, List[Any]]] = []
            # (base, lhs) per reduction edge of this level: the pair fixes
            # the edge's target, so a repeat is known before its GOTO.
            reduced: Set[Tuple[GSSNode, Any]] = set()
            accepting: List[GSSNode] = []
            shifts: List[Tuple[GSSNode, Any]] = []
            steps = 0

            while walks or worklist:
                steps += 1
                if steps > max_steps_per_token:
                    raise SweepLimitExceeded(
                        f"GSS work budget exceeded at position {position}",
                        position=position,
                        symbol=symbol,
                    )
                if (
                    deadline is not None
                    and (steps & CHECK_MASK) == 0
                    and deadline.expired()
                ):
                    raise deadline.exceed(position)
                if walks:
                    rule, paths = walks.pop()
                    lhs = rule.lhs
                    reductions_applied += len(paths)
                    for base, children in paths:
                        if forest is not None:
                            # Pack this derivation under the span's unique
                            # ambiguity node.  Goto-target uniqueness (one
                            # accessing symbol per state) guarantees an
                            # existing target→base edge already carries
                            # this same packed node as its label.
                            packed = forest.packed(lhs, base.position, position)
                            packed.add(forest.node(rule, children))
                            label = packed
                        else:
                            label = None
                        if (base, lhs) in reduced:
                            continue
                        reduced.add((base, lhs))
                        goto_state = control_goto(base.state, lhs)
                        target = frontier.get(goto_state)
                        if target is None:
                            target = GSSNode(goto_state, position)
                            nodes_created += 1
                            frontier[goto_state] = target
                            worklist.append(target)
                        target.edges.append(base)
                        target.labels.append(label)
                        edges_created += 1
                        # A vertex still in the worklist walks the new
                        # paths when it is examined.
                        for other, other_rules in examined:
                            for other_rule in other_rules:
                                walked = _labeled_paths(
                                    other, len(other_rule.rhs), target, base
                                )
                                if walked:
                                    paths_walked += len(walked)
                                    walks.append((other_rule, walked))
                    continue

                node = worklist.pop()
                if prefetched is not None and node.state is prefetched_state:
                    actions = prefetched
                    prefetched = None
                else:
                    actions = control_action(node.state, symbol)
                rules: List[Any] = []
                for action in actions:
                    if isinstance(action, Shift):
                        shifts.append((node, action.target))
                    elif isinstance(action, Accept):
                        accepting.append(node)
                    else:
                        assert isinstance(action, Reduce)
                        rules.append(action.rule)
                        walked = _labeled_paths(node, len(action.rule.rhs))
                        paths_walked += len(walked)
                        walks.append((action.rule, walked))
                examined.append((node, rules))

            # Roots are collected once the sweep ends, so an edge added
            # late to an accepting vertex still yields its roots.
            for node in accepting:
                accepted = True
                if forest is not None:
                    self._collect_roots(node, forest, roots)

            new_frontier: Dict[Any, GSSNode] = {}
            shifted = symbol if forest is not None else None
            for node, target_state in shifts:
                target = new_frontier.get(target_state)
                if target is None:
                    target = GSSNode(target_state, position + 1)
                    nodes_created += 1
                    new_frontier[target_state] = target
                target.edges.append(node)
                target.labels.append(shifted)
                edges_created += 1
            failure_position = position
            failure_symbol = symbol
            failure_states = tuple(node.state for node, _ in examined)
            frontier = new_frontier
            position += 1

        if fast_hits and credit_hits is not None:
            credit_hits(fast_hits)
        stats = GSSStats(
            nodes_created, edges_created, reductions_applied, paths_walked
        )
        failure: Optional[ParseFailure] = None
        if not accepted:
            # Every rejection passes through a general sweep (the stretch
            # bails on empty cells), so the recorded states are the fatal
            # sweep's reduce closure — exactly what the expected-terminal
            # diagnostic replays.
            failure = ParseFailure(
                failure_position, failure_symbol, (), failure_states
            )
        result_forest: Optional[ParseForest] = None
        if accepted and build_trees:
            result_forest = ParseForest(tuple(roots))
        return GSSResult(accepted, result_forest, stats, failure)

    def _collect_roots(
        self,
        node: GSSNode,
        forest: Forest,
        roots: Dict[TreeNode, None],
    ) -> None:
        """START-rule roots at an accepting vertex (cf. recover_start_trees).

        Each downward path spelling a START rule's body and bottoming out
        at the initial vertex contributes one packed root; hash-consing
        dedups identical derivations across paths.
        """
        assert self.grammar is not None
        for rule in self.grammar.start_rules():
            arity = len(rule.rhs)
            for base, children in _labeled_paths(node, arity):
                if base.edges:  # only the initial vertex has no edges
                    continue
                if any(child is None for child in children):
                    continue
                if any(
                    (child if child.__class__ is Terminal else child.symbol)
                    != expected
                    for child, expected in zip(children, rule.rhs)
                ):
                    continue
                roots.setdefault(forest.node(rule, children))


def _labeled_paths(
    node: GSSNode,
    length: int,
    via: Optional[GSSNode] = None,
    edge: Optional[GSSNode] = None,
) -> List[Tuple[GSSNode, Tuple[Optional[TreeNode], ...]]]:
    """``(base, children)`` per downward path of ``length`` edges.

    ``base`` is the vertex the GOTO is taken from; ``children`` are the
    edge labels in rule-body order.  ``length`` 0 yields ``(node, ())``:
    how ε-reductions anchor at the node itself.  Given ``via`` and
    ``edge``, only paths taking the edge ``via`` → ``edge`` are kept; a
    path reaches ``via`` over ε-edges of its level, so until the edge is
    taken every step to an earlier level is pruned.
    """
    paths: List[Tuple[GSSNode, Tuple]] = [(node, ())]
    # Paths that have not yet taken the edge, in a walk restricted to one.
    waiting: List[Tuple[GSSNode, Tuple]] = []
    if via is not None:
        paths, waiting = waiting, paths
    for _ in range(length):
        extended = [
            (below, (label,) + labels)
            for tail, labels in paths
            for below, label in zip(tail.edges, tail.labels)
        ]
        still_waiting = []
        for tail, labels in waiting:
            for below, label in zip(tail.edges, tail.labels):
                if tail is via and below is edge:
                    extended.append((below, (label,) + labels))
                elif below.position == via.position:
                    still_waiting.append((below, (label,) + labels))
        paths, waiting = extended, still_waiting
    return paths
