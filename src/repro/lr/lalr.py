"""LALR(1) table construction — the Yacc baseline of section 7.

The paper's measurements pit IPG against Yacc, which *"generates LALR(1)
tables"*; its Postscript contrasts IPG's incremental LR(0) approach with
Horspool's incremental LALR(1), noting that lookahead sets are what make
incremental LALR generation hard.  This module provides the conventional,
non-incremental LALR(1) generator those comparisons need.

Algorithm: the classic lookahead propagation scheme over the LR(0)
automaton (Aho–Sethi–Ullman, Algorithm 4.12 — the paper's reference
[ASU86]):

1. build the full LR(0) graph;
2. for every kernel item, run an LR(1) closure with a *dummy* lookahead to
   discover which lookaheads are generated **spontaneously** and which
   **propagate** along transitions;
3. iterate propagation to a fixpoint;
4. derive per-state reduce lookaheads by an LR(1) closure of each state's
   kernel items with their final lookahead sets.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..grammar.analysis import GrammarAnalysis
from ..grammar.grammar import Grammar
from ..grammar.rules import Rule
from ..grammar.symbols import END, NonTerminal, Terminal
from .graph import ItemSetGraph
from .items import Item
from .states import ItemSet
from .table import ParseTable, Reduces, table_from_graph

#: Dummy lookahead used to detect propagation; the NUL prefix keeps it from
#: colliding with any user terminal.
_DUMMY = Terminal("\x00#")


def _lr1_closure(
    seeds: Iterable[Tuple[Item, Terminal]],
    grammar: Grammar,
    analysis: GrammarAnalysis,
) -> FrozenSet[Tuple[Item, Terminal]]:
    """LR(1) closure of ``(item, lookahead)`` pairs.

    For an item ``A ::= alpha . B beta`` with lookahead ``a``, every rule
    ``B ::= gamma`` enters the closure with each lookahead in
    FIRST(beta a).
    """
    closure: Set[Tuple[Item, Terminal]] = set(seeds)
    work: List[Tuple[Item, Terminal]] = list(closure)
    while work:
        item, lookahead = work.pop()
        symbol = item.next_symbol
        if not isinstance(symbol, NonTerminal):
            continue
        tail = item.after_dot[1:]
        lookaheads: Set[Terminal] = set(analysis.first_of(tail))
        if analysis.sequence_nullable(tail):
            lookaheads.add(lookahead)
        for rule in grammar.rules_for(symbol):
            fresh_item = Item(rule, 0)
            for la in lookaheads:
                pair = (fresh_item, la)
                if pair not in closure:
                    closure.add(pair)
                    work.append(pair)
    return frozenset(closure)


def compute_lalr_lookaheads(
    graph: ItemSetGraph,
) -> Dict[Tuple[int, Item], FrozenSet[Terminal]]:
    """Lookahead sets for every kernel item of every state."""
    grammar = graph.grammar
    analysis = GrammarAnalysis(grammar)

    lookaheads: Dict[Tuple[int, Item], Set[Terminal]] = {}
    propagates: Dict[Tuple[int, Item], Set[Tuple[int, Item]]] = {}

    states = graph.states()
    for state in states:
        for kernel_item in state.kernel_items():
            source = (state.uid, kernel_item)
            lookaheads.setdefault(source, set())
            for item, la in _lr1_closure(
                [(kernel_item, _DUMMY)], grammar, analysis
            ):
                symbol = item.next_symbol
                if symbol is None:
                    continue
                target_state = state.transitions.get(symbol)
                if not isinstance(target_state, ItemSet):
                    continue
                target = (target_state.uid, item.advanced())
                if la == _DUMMY:
                    propagates.setdefault(source, set()).add(target)
                else:
                    lookaheads.setdefault(target, set()).add(la)

    for kernel_item in graph.start.kernel_items():
        lookaheads.setdefault((graph.start.uid, kernel_item), set()).add(END)

    changed = True
    while changed:
        changed = False
        for source, targets in propagates.items():
            source_las = lookaheads.get(source, set())
            for target in targets:
                target_las = lookaheads.setdefault(target, set())
                before = len(target_las)
                target_las |= source_las
                if len(target_las) != before:
                    changed = True

    return {key: frozenset(las) for key, las in lookaheads.items()}


def lalr_table(grammar: Grammar) -> ParseTable:
    """Build the full LALR(1) parse table (the Yacc construction phase)."""
    graph = ItemSetGraph(grammar)
    graph.expand_all()
    return lalr_table_from_graph(graph)


def lalr_table_from_graph(graph: ItemSetGraph) -> ParseTable:
    grammar = graph.grammar
    analysis = GrammarAnalysis(grammar)
    kernel_lookaheads = compute_lalr_lookaheads(graph)

    def reduces(state: ItemSet) -> Reduces:
        # Reduce lookaheads come from the LR(1) closure of the kernel with
        # its final LALR lookahead sets (this also covers epsilon rules,
        # whose completed items only ever appear in closures).
        seeds: List[Tuple[Item, Terminal]] = []
        for kernel_item in state.kernel_items():
            for la in kernel_lookaheads.get((state.uid, kernel_item), ()):
                seeds.append((kernel_item, la))
        reduce_lookaheads: Dict[Rule, Set[Terminal]] = {}
        for item, la in _lr1_closure(seeds, grammar, analysis):
            if item.at_end and item.rule.lhs != grammar.start and la != _DUMMY:
                reduce_lookaheads.setdefault(item.rule, set()).add(la)
        return [
            (rule, frozenset(las))
            for rule, las in sorted(
                reduce_lookaheads.items(), key=lambda kv: kv[0].sort_key()
            )
        ]

    return table_from_graph(graph, reduces)
