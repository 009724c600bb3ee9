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
* **Checkpoints.**  Given a :class:`Checkpoints` log, the same loop starts
  at a recorded token boundary, records the frontier (a tuple of
  :class:`GSSNode`) at every boundary it reaches, and stops once that
  frontier matches the base run's by structure — the mechanism behind
  :mod:`repro.runtime.incremental`.  A plain and a checkpointed parse
  take the same steps.
* **Failure records.**  A rejected input carries a
  :class:`~repro.runtime.parallel.ParseFailure` listing every state the
  fatal sweep visited, the record the pool keeps too; since LR(0)
  reductions are lookahead-independent, their shift terminals are exactly
  the expected-set a diagnostic reports.

This is the production runtime: the default ``gss`` engine of
:mod:`repro.api.engines` serves every parse, checkpoint and reparse that
names no engine.  Its recognizer is also the ablation subject of
``bench_ablation_pool_vs_gss`` and of the property tests that
cross-check PAR-PARSE, GSS and Earley on random grammars.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..grammar.symbols import END, Terminal
from ..lr.actions import Accept, Reduce, Shift
from ..lr.compiled import STEP_REDUCE, STEP_SHIFT, CompiledControl
from ..lr.states import ItemSet
from .deadline import CHECK_MASK, active_deadline
from .errors import SweepLimitExceeded
from .forest import Forest, ParseForest, TreeNode
from .parallel import ParseFailure


class GSSNode:
    """One stack top (or interior vertex) of the graph-structured stack.

    Most vertices keep the one edge they were created with, and a vertex
    is allocated per parser step, so that edge lives in :attr:`below` and
    :attr:`label`; only a vertex that gains a second edge (a merge) lists
    its edges in :attr:`edges` and :attr:`labels`.
    """

    __slots__ = ("state", "below", "label", "edges", "labels", "position", "sig")

    def __init__(
        self,
        state: Any,
        position: int = 0,
        below: Optional["GSSNode"] = None,
        label: Optional[TreeNode] = None,
    ) -> None:
        self.state = state
        #: the first predecessor vertex (the cell "below" this one);
        #: ``None`` only on the start vertex
        self.below = below
        #: forest label of that edge; ``None`` in recognition mode
        self.label = label
        #: every predecessor, once there are several (``[]`` on the start
        #: vertex); ``None`` while :attr:`below` is the only one
        self.edges: Optional[List["GSSNode"]] = [] if below is None else None
        #: forest label per edge, parallel to :attr:`edges`
        self.labels: Optional[List[Optional[TreeNode]]] = (
            [] if below is None else None
        )
        #: tokens consumed when this vertex was created (the *end* of the
        #: span any reduction over it packs)
        self.position = position
        #: structural hash of this vertex and everything below it, set by
        #: :func:`_signature` once a checkpointed run compares it
        self.sig: Optional[int] = None

    def add_edge(self, below: "GSSNode", label: Optional[TreeNode]) -> None:
        """Merge another stack path into this vertex."""
        if self.edges is None:
            self.edges = [self.below, below]
            self.labels = [self.label, label]
        else:
            self.edges.append(below)
            self.labels.append(label)

    def __repr__(self) -> str:
        edges = 1 if self.edges is None else len(self.edges)
        return f"GSSNode(state={getattr(self.state, 'uid', self.state)}, {edges} edges)"


class GSSStats:
    """Work counters for one GSS run (reported by benches and engines)."""

    __slots__ = (
        "nodes_created",
        "edges_created",
        "reductions_applied",
        "paths_walked",
        "general_sweeps",
    )

    def __init__(
        self,
        nodes_created: int = 0,
        edges_created: int = 0,
        reductions_applied: int = 0,
        paths_walked: int = 0,
        general_sweeps: int = 0,
    ) -> None:
        self.nodes_created = nodes_created
        self.edges_created = edges_created
        self.reductions_applied = reductions_applied
        #: reduction paths the general sweep walked; each is applied once
        self.paths_walked = paths_walked
        #: input positions the general sweep handled (the deterministic
        #: stretch took every other one)
        self.general_sweeps = general_sweeps

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


#: Frontier at one token boundary: the stack tops *before* consuming the
#: token at that index (``None`` marks boundaries the run never reached).
Frontier = Optional[Tuple[GSSNode, ...]]


class Checkpoints:
    """The frontier log of one checkpointed :meth:`GSSParser.run`.

    ``frontiers[i]`` holds the stack tops before input token ``i``; the
    run starts from ``frontiers[start]`` (a fresh start vertex at boundary
    0) and records every boundary it reaches.  With ``base_frontiers``
    (the log of an earlier run over the input before an edit that shifted
    later positions by ``delta``), from boundary ``watch_from`` on the run
    stops as soon as its frontier matches the base's at the matching
    boundary, and ``converged_at`` names that boundary.

    A logged vertex is final: a boundary frontier holds shift targets
    only, which no reduction can reach (a state has one accessing
    symbol), and every vertex below belongs to a finished level.
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

    def reached(self, boundary: int, frontier: Tuple[GSSNode, ...]) -> bool:
        """Record ``frontier`` at ``boundary``; True once it re-converges.

        Two frontiers match when their vertices carry the same states,
        edges and labels down to the first shared vertex; positions are
        left out, since an edit moves them.  A compared vertex caches its
        :func:`_signature`, so an unequal frontier is rejected in O(1)
        once its vertices are hashed, and only a likely match is walked.
        """
        self.frontiers[boundary] = frontier
        old_index = boundary - self.delta
        if boundary < self.watch_from or not 0 <= old_index < len(self.base_frontiers):
            return False
        old = self.base_frontiers[old_index]
        if old is None or len(old) != len(frontier):
            return False
        by_state = {node.state: node for node in old}
        pairs = []
        for node in frontier:
            other = by_state.get(node.state)
            if other is None or _signature(other) != _signature(node):
                return False
            pairs.append((other, node))
        if not _same_below(pairs):
            return False
        self.converged_at = boundary
        return True


class GSSParser:
    """GLR parsing over a merged stack graph.

    Parameters
    ----------
    control:
        The compiled control: the general sweep calls its ``action`` and
        ``goto``, the deterministic stretch reads its step cells, and its
        ``grammar`` names the START rules roots are recovered from.
    max_steps_per_token:
        Work budget per input symbol (cyclic-grammar guard).
    """

    def __init__(
        self, control: CompiledControl, max_steps_per_token: int = 1_000_000
    ) -> None:
        self.control = control
        self.max_steps_per_token = max_steps_per_token

    # -- public API ------------------------------------------------------

    def recognize(self, tokens: Iterable[Terminal]) -> bool:
        return self.run(tokens, build_trees=False).accepted

    def recognize_result(self, tokens: Iterable[Terminal]) -> GSSResult:
        """Recognition that keeps the full result (stats and failure)."""
        return self.run(tokens, build_trees=False)

    def parse(self, tokens: Iterable[Terminal]) -> GSSResult:
        return self.run(tokens, build_trees=True)

    # -- the algorithm ---------------------------------------------------

    def run(
        self,
        tokens: Iterable[Terminal],
        build_trees: bool,
        forest: Optional[Forest] = None,
        checkpoints: Optional[Checkpoints] = None,
    ) -> GSSResult:
        """GLR over ``tokens``: the one loop behind every gss parse.

        ``forest`` is the forest a tree-mode run builds into, fresh by
        default.  With ``checkpoints`` the run starts at
        ``checkpoints.start``, records the frontier at every token
        boundary, and stops early when it re-converges with the base run
        (see :class:`Checkpoints`); a converged result carries neither
        acceptance nor a failure record — the caller adopts the base's.
        """
        sentence: List[Terminal] = list(tokens)
        sentence.append(END)
        sentence_length = len(sentence)

        edges_created = 0
        reductions_applied = 0
        paths_walked = 0
        general_sweeps = 0

        if not build_trees:
            forest = None
        elif forest is None:
            forest = Forest()
        roots: Dict[TreeNode, None] = {}

        position = 0 if checkpoints is None else checkpoints.start
        if position:
            nodes_created = 0
            frontier: Dict[Any, GSSNode] = {
                node.state: node for node in checkpoints.frontiers[position]
            }
        else:
            nodes_created = 1
            start_node = GSSNode(self.control.start_state, 0)
            frontier = {start_node.state: start_node}
        accepted = False
        deadline = active_deadline()

        # Hoisted hot-loop attributes: the stretch probes the compiled
        # control's step cells directly and credits its hits in one batch.
        control = self.control
        control_action = control.action
        control_goto = control.goto
        max_steps_per_token = self.max_steps_per_token
        steps_get = control.fast_step_cache.get
        fast_hits = 0
        fast_reduce_budget = 64 + 4 * (len(control.grammar.nonterminals) + 2)

        # Fatal-sweep record for the failure diagnostic.
        failure_position = 0
        failure_symbol: Terminal = END
        failure_states: Tuple[Any, ...] = ()

        while frontier and position < sentence_length:
            # A token boundary: the one place (with the shift in the
            # stretch below) a checkpointed run records and converges.
            if checkpoints is not None and checkpoints.reached(
                position, tuple(frontier.values())
            ):
                break
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
                # The stack accepted, or a checkpointed run converged.
                retired = False
                while True:
                    state = node.state
                    step = None
                    per_state = steps_get(state)
                    if per_state is not None:
                        step = per_state.get(symbol)
                        if step is not None and step is not False:
                            fast_hits += 1
                    if step is None:
                        # Cold cell: read the (FOLLOW-filtered) step the
                        # compiled control's ACTION just cached.
                        actions = control_action(state, symbol)
                        step = steps_get(state)[symbol]
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
                        if checkpoints is not None and checkpoints.reached(
                            position, (node,)
                        ):
                            retired = True
                            break
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
                            if base.edges is not None:
                                linear = False
                                break
                            chain_labels.append(base.label)
                            base = base.below
                        if not linear:
                            break  # merged region: the graph sweep decides
                        goto_state = base.state.transitions.get(lhs)
                        if goto_state.__class__ is not ItemSet:
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
            general_sweeps += 1
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
                            target = GSSNode(goto_state, position, base, label)
                            nodes_created += 1
                            frontier[goto_state] = target
                            worklist.append(target)
                        else:
                            target.add_edge(base, label)
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
                    target = GSSNode(target_state, position + 1, node, shifted)
                    nodes_created += 1
                    new_frontier[target_state] = target
                else:
                    target.add_edge(node, shifted)
                edges_created += 1
            failure_position = position
            failure_symbol = symbol
            failure_states = tuple(node.state for node, _ in examined)
            frontier = new_frontier
            position += 1

        if fast_hits:
            control.count_probe_hits(fast_hits)
        stats = GSSStats(
            nodes_created,
            edges_created,
            reductions_applied,
            paths_walked,
            general_sweeps,
        )
        failure: Optional[ParseFailure] = None
        if not accepted and (checkpoints is None or checkpoints.converged_at is None):
            # Every rejection passes through a general sweep (the stretch
            # bails on empty cells), so the recorded states are the fatal
            # sweep's reduce closure — exactly the states the
            # expected-terminal diagnostic reads.
            failure = ParseFailure(failure_position, failure_symbol, failure_states)
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
        for rule in self.control.grammar.start_rules():
            arity = len(rule.rhs)
            for base, children in _labeled_paths(node, arity):
                if base.below is not None:  # not the initial vertex
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
        extended = []
        for tail, labels in paths:
            if tail.edges is None:
                extended.append((tail.below, (tail.label,) + labels))
            else:
                for below, label in zip(tail.edges, tail.labels):
                    extended.append((below, (label,) + labels))
        still_waiting = []
        for tail, labels in waiting:
            for below, label in _edges_of(tail):
                if tail is via and below is edge:
                    extended.append((below, (label,) + labels))
                elif below.position == via.position:
                    still_waiting.append((below, (label,) + labels))
        paths, waiting = extended, still_waiting
    return paths


def _signature(node: GSSNode) -> int:
    """The structural hash of ``node`` and every vertex below it, cached
    per vertex (only final vertices are hashed: a logged frontier and
    what lies below it).

    A vertex's signature combines its state with each edge's label
    identity and the signature below that edge; positions are left out.
    Hashed vertices stop the walk.  A deterministic stretch builds chains
    of single-edge vertices, which are hashed on the way back up; a
    single edge always points to an older vertex, so a chain has no
    cycle.
    """
    sig = node.sig
    if sig is not None:
        return sig
    chain = []
    while sig is None and node.edges is None:
        chain.append(node)
        node = node.below
        sig = node.sig
    if sig is None:
        sig = _merged_signature(node)
    for vertex in reversed(chain):
        sig = vertex.sig = hash((id(vertex.state), id(vertex.label), sig))
    return sig


def _merged_signature(node: GSSNode) -> int:
    """:func:`_signature` of a vertex with no edge or several, by a
    depth-first walk.  Hidden left recursion loops ε-edges back onto a
    vertex; such a back edge hashes as ``None``."""
    pending = [node]
    entered: Set[GSSNode] = set()
    while pending:
        top = pending[-1]
        if top.sig is not None:
            pending.pop()
            continue
        if top not in entered:
            entered.add(top)
            for below, _label in _edges_of(top):
                if below.sig is None and below not in entered:
                    pending.append(below)
            continue
        pending.pop()
        if top.edges is None:
            top.sig = hash((id(top.state), id(top.label), top.below.sig))
        else:
            top.sig = hash((
                id(top.state),
                tuple(map(id, top.labels)),
                tuple([below.sig for below in top.edges]),
            ))
    return node.sig  # type: ignore[return-value]


def _same_below(pairs: List[Tuple[GSSNode, GSSNode]]) -> bool:
    """Whether each pair has equal states, edges and labels down to the
    first shared vertex (signatures must already be cached)."""
    seen: Set[Tuple[GSSNode, GSSNode]] = set()
    while pairs:
        a, b = pairs.pop()
        if a is b or (a, b) in seen:
            continue
        seen.add((a, b))
        if a.sig != b.sig or a.state is not b.state:
            return False
        a_edges = list(_edges_of(a))
        b_edges = list(_edges_of(b))
        if len(a_edges) != len(b_edges):
            return False
        for (a_below, a_label), (b_below, b_label) in zip(a_edges, b_edges):
            if a_label is not b_label:
                return False
            pairs.append((a_below, b_below))
    return True


def _edges_of(node: GSSNode) -> Iterable[Tuple[GSSNode, Optional[TreeNode]]]:
    """``(below, label)`` per edge of ``node``."""
    if node.edges is None:
        return ((node.below, node.label),)
    return zip(node.edges, node.labels)
