"""LALR lookahead machinery: spontaneous generation and propagation."""

import pytest

from repro.grammar.builders import grammar_from_text
from repro.grammar.symbols import END, Terminal
from repro.lr.actions import Reduce
from repro.lr.graph import ItemSetGraph
from repro.lr.lalr import compute_lalr_lookaheads

#: ASU's running example for lookahead propagation (grammar 4.20):
#: S ::= L = R | R ;  L ::= * R | id ;  R ::= L
PROPAGATION = """
    S ::= L = R
    S ::= R
    L ::= * R
    L ::= id
    R ::= L
    START ::= S
"""


@pytest.fixture()
def graph():
    graph = ItemSetGraph(grammar_from_text(PROPAGATION))
    graph.expand_all()
    return graph


def reduce_lookaheads(table, state):
    """Each rule's reduce lookaheads in one state, read off its ACTION cells."""
    found = {}
    for terminal in list(table.terminals) + [END]:
        for action in table.action(state, terminal):
            if isinstance(action, Reduce):
                found.setdefault(action.rule, set()).add(terminal)
    return found


def lookaheads_for(graph, lookaheads, lhs_name, rhs_texts, dot):
    """Collect the lookahead set of a kernel item found by its shape."""
    for state in graph.states():
        for item in state.kernel_items():
            if (
                item.rule.lhs.name == lhs_name
                and [s.name for s in item.rule.rhs] == rhs_texts
                and item.dot == dot
            ):
                return lookaheads.get((state.uid, item), frozenset())
    raise AssertionError("kernel item not found")


class TestLookaheads:
    def test_start_item_sees_end_marker(self, graph):
        lookaheads = compute_lalr_lookaheads(graph)
        start_item = next(iter(graph.start.kernel_items()))
        assert END in lookaheads[(graph.start.uid, start_item)]

    def test_spontaneous_lookahead(self, graph):
        lookaheads = compute_lalr_lookaheads(graph)
        # L ::= * . R gets '=' spontaneously (from S ::= . L = R context)
        las = lookaheads_for(graph, lookaheads, "L", ["*", "R"], 1)
        assert Terminal("=") in las

    def test_propagated_end_marker(self, graph):
        lookaheads = compute_lalr_lookaheads(graph)
        # ...and $ by propagation (from S ::= . R, R ::= . L contexts)
        las = lookaheads_for(graph, lookaheads, "L", ["*", "R"], 1)
        assert END in las

    def test_reduce_lookaheads_are_subset_of_follow(self):
        from repro.grammar.analysis import GrammarAnalysis
        from repro.lr.lalr import lalr_table_from_graph

        grammar = grammar_from_text(PROPAGATION)
        graph = ItemSetGraph(grammar)
        graph.expand_all()
        table = lalr_table_from_graph(graph)
        analysis = GrammarAnalysis(grammar)
        for index in range(len(table)):
            # no lookahead-free reduce: a stranger terminal gets nothing
            assert table.action(index, Terminal("stranger")) == ()
            for rule, las in reduce_lookaheads(table, index).items():
                assert las <= analysis.follow(rule.lhs), (
                    f"LALR lookaheads must refine SLR's FOLLOW for {rule}"
                )

    def test_lalr_strictly_sharper_than_slr_somewhere(self):
        """On the propagation grammar, some LALR reduce set is a *proper*
        subset of FOLLOW — that is the whole point of LALR over SLR."""
        from repro.grammar.analysis import GrammarAnalysis
        from repro.lr.lalr import lalr_table

        grammar = grammar_from_text(PROPAGATION)
        table = lalr_table(grammar)
        analysis = GrammarAnalysis(grammar)
        strictly_smaller = False
        for index in range(len(table)):
            for rule, las in reduce_lookaheads(table, index).items():
                if las < analysis.follow(rule.lhs):
                    strictly_smaller = True
        assert strictly_smaller
