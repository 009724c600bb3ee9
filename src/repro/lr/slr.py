"""SLR(1) table construction.

SLR(1) refines the LR(0) table by restricting each reduction ``A ::= beta``
to the terminals in FOLLOW(A).  It sits between the paper's two poles —
LR(0) (what IPG generates incrementally) and LALR(1) (what Yacc generates) —
and the ablation bench ``bench_ablation_lr0_vs_lalr`` uses all three to show
the generation-time/parse-determinism trade-off the Postscript discusses.
"""

from __future__ import annotations

from ..grammar.analysis import GrammarAnalysis
from ..grammar.grammar import Grammar
from .graph import ItemSetGraph
from .table import ParseTable, table_from_graph


def slr_table(grammar: Grammar) -> ParseTable:
    """Build the full LR(0) automaton, then attach FOLLOW-restricted reduces."""
    graph = ItemSetGraph(grammar)
    graph.expand_all()
    return slr_table_from_graph(graph)


def slr_table_from_graph(graph: ItemSetGraph) -> ParseTable:
    analysis = GrammarAnalysis(graph.grammar)
    return table_from_graph(
        graph,
        lambda state: [(rule, analysis.follow(rule.lhs)) for rule in state.reductions],
    )
