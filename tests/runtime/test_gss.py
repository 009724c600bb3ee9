"""The GSS GLR recognizer: agreement with the pool parser, merging."""


import pytest

from repro.api import Language
from repro.bench.workloads import booleans_workload
from repro.grammar.builders import grammar_from_text
from repro.lr.compiled import CompiledControl
from repro.lr.generator import ConventionalGenerator
from repro.runtime.gss import GSSParser, _labeled_paths, GSSNode
from repro.runtime.parallel import PoolParser

from ..conftest import toks


def gss_for(grammar):
    return GSSParser(CompiledControl(ConventionalGenerator(grammar).generate()))


class TestRecognition:
    def test_booleans(self, booleans):
        parser = gss_for(booleans)
        assert parser.recognize(toks("true or false and true"))
        assert not parser.recognize(toks("or true"))
        assert not parser.recognize(toks(""))

    def test_ambiguous(self, ambiguous_expr):
        parser = gss_for(ambiguous_expr)
        assert parser.recognize(toks("n + n + n + n + n"))
        assert not parser.recognize(toks("n + + n"))

    def test_epsilon_rules(self, epsilon_grammar):
        parser = gss_for(epsilon_grammar)
        assert parser.recognize(toks("b"))
        assert parser.recognize(toks("a b"))
        assert parser.recognize(toks("a b c"))
        assert not parser.recognize(toks("c b"))

    def test_empty_sentence_nullable_start(self):
        grammar = grammar_from_text(
            """
            S ::=
            S ::= a S
            START ::= S
            """
        )
        parser = gss_for(grammar)
        assert parser.recognize([])
        assert parser.recognize(toks("a a a"))

    def test_cyclic_grammar_terminates(self):
        # the merged representation turns the A ::= A loop into a cycle
        # edge instead of an unbounded pool
        cyclic = grammar_from_text(
            """
            A ::= A
            A ::= a
            START ::= A
            """
        )
        parser = gss_for(cyclic)
        assert parser.recognize(toks("a"))
        assert not parser.recognize(toks("a a"))

    def test_hidden_left_recursion(self):
        # S ::= A S b with nullable A defeats the linear-stack pool
        # parser; the GSS handles it through node reuse.
        grammar = grammar_from_text(
            """
            S ::= A S b
            S ::= s
            A ::=
            START ::= S
            """
        )
        parser = gss_for(grammar)
        assert parser.recognize(toks("s"))
        assert parser.recognize(toks("s b"))
        assert parser.recognize(toks("s b b b"))
        assert not parser.recognize(toks("b"))


class TestAgreementWithPool:
    SENTENCES = [
        "n",
        "n + n",
        "n + n + n + n",
        "n +",
        "+ n",
        "",
        "n n",
    ]

    def test_same_verdicts(self, ambiguous_expr):
        gss = gss_for(ambiguous_expr)
        pool = PoolParser(
            ConventionalGenerator(ambiguous_expr).generate(), ambiguous_expr
        )
        for sentence in self.SENTENCES:
            assert gss.recognize(toks(sentence)) == pool.recognize(
                toks(sentence)
            ), sentence


class TestMerging:
    def test_frontier_bounded_by_states(self, ambiguous_expr):
        parser = gss_for(ambiguous_expr)
        small = toks("n + n + n")
        large = toks(" ".join(["n"] + ["+ n"] * 12))
        small_nodes = parser.recognize_result(small).stats.nodes_created
        large_nodes = parser.recognize_result(large).stats.nodes_created
        # node growth is linear in input length, not Catalan
        assert large_nodes < small_nodes * 8

    def test_stats_populated(self, booleans):
        parser = gss_for(booleans)
        stats = parser.recognize_result(toks("true and true")).stats
        assert stats.nodes_created > 0
        assert stats.reductions_applied > 0

    def test_each_reduction_path_walked_once(self):
        # booleans medium: 40 operands, Catalan(39) trees.  Re-examining
        # every vertex on each late edge walked 14.7 paths per reduction.
        workload = booleans_workload()
        stats = Language(workload.fresh_grammar()).recognize(
            workload.inputs["medium"], engine="gss"
        ).stats
        assert (
            stats["nodes_created"],
            stats["edges_created"],
            stats["reductions_applied"],
        ) == (236, 1013, 10739)
        assert stats["paths_walked"] <= 2 * stats["reductions_applied"]


class TestLateEdges:
    """An edge added to an examined vertex opens the paths that take it."""

    # The ``A ::= y A C .`` vertex is examined before a late A-edge
    # reaches the ``A ::= y A . C`` vertex below its ε-edge for C, so the
    # A ::= y A C path must cross that zero-width edge to take the late
    # one.
    EPSILON_SPAN = """
        START ::= A
        A ::=
        A ::= y A C
        C ::=
        C ::= y y y
    """

    @pytest.mark.parametrize(
        "length, trees", [(0, 1), (1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (8, 7)]
    )
    def test_path_through_an_epsilon_span(self, length, trees):
        language = Language(grammar_from_text(self.EPSILON_SPAN))
        sentence = " ".join(["y"] * length)
        outcome = language.parse(sentence, engine="gss")
        assert outcome.accepted == language.recognize(
            sentence, engine="earley"
        ).accepted
        assert outcome.accepted
        assert outcome.forest.tree_count() == trees


def link(node, below, label=None):
    node.edges.append(below)
    node.labels.append(label)


class TestPathEnumeration:
    def test_zero_length_path_is_node_itself(self):
        node = GSSNode("s")
        assert _labeled_paths(node, 0) == [(node, ())]

    def test_paths_follow_edges(self):
        a, b, c = GSSNode("a"), GSSNode("b"), GSSNode("c")
        link(a, b, "ab")
        link(a, c, "ac")
        paths = _labeled_paths(a, 1)
        assert (b, ("ab",)) in paths and (c, ("ac",)) in paths

    def test_cycle_bounded_by_length(self):
        a = GSSNode("a")
        link(a, a)  # self-cycle
        assert len(_labeled_paths(a, 3)) == 1  # exactly one (looping) path

    def test_via_keeps_only_paths_taking_the_edge(self):
        # top and mid are on the current level (position 2); mid's edge to
        # below spans no input, its edge to early spans two tokens.
        early, below = GSSNode("early", 0), GSSNode("below", 2)
        mid, top = GSSNode("mid", 2), GSSNode("top", 2)
        link(mid, early, "m0")
        link(mid, below, "m1")
        link(below, early, "b0")
        link(top, mid, "t")
        assert len(_labeled_paths(top, 2)) == 2
        # Through mid's new ε-edge only: the walk over the earlier
        # edge is pruned before it leaves the level.
        assert _labeled_paths(top, 2, mid, below) == [(below, ("m1", "t"))]
        assert _labeled_paths(top, 3, mid, below) == [
            (early, ("b0", "m1", "t"))
        ]
        assert _labeled_paths(top, 1, mid, below) == []
        # A path that takes the edge first keeps going freely after it.
        assert _labeled_paths(mid, 2, mid, below) == [(early, ("b0", "m1"))]
