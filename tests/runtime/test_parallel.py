"""PAR-PARSE (section 3.2): forking, synchronization, trees, guards."""

import pytest

from repro.grammar.builders import grammar_from_text
from repro.lr.generator import ConventionalGenerator
from repro.runtime.errors import SweepLimitExceeded
from repro.runtime.forest import bracketed, tokens_of
from repro.runtime.incremental import checkpointed_parse
from repro.runtime.parallel import PoolParser

from ..conftest import toks


def pool_for(grammar, **kwargs):
    control = ConventionalGenerator(grammar).generate()
    return PoolParser(control, grammar, **kwargs)


class TestRecognition:
    def test_accepts_and_rejects(self, booleans):
        parser = pool_for(booleans)
        assert parser.recognize(toks("true or false and true"))
        assert not parser.recognize(toks("true or"))
        assert not parser.recognize(toks(""))

    def test_matches_deterministic_parser_on_unambiguous(self, expr):
        parser = pool_for(expr)
        assert parser.recognize(toks("n + n * ( n + n )"))
        assert not parser.recognize(toks("n + * n"))

    def test_epsilon_rules(self, epsilon_grammar):
        parser = pool_for(epsilon_grammar)
        assert parser.recognize(toks("b"))
        assert parser.recognize(toks("a b c"))
        assert not parser.recognize(toks("a"))


class TestForking:
    def test_forks_on_conflicts(self, booleans):
        parser = pool_for(booleans)
        result = parser.parse(toks("true or false and true"))
        assert result.accepted
        assert result.stats.forks > 0

    def test_all_parsers_die_means_reject(self, booleans):
        parser = pool_for(booleans)
        result = parser.parse(toks("true or or"))
        assert not result.accepted
        assert result.trees == ()

    def test_sweeps_count_input_symbols(self, booleans):
        parser = pool_for(booleans)
        result = parser.parse(toks("true or false"))
        # three tokens plus the end marker
        assert result.stats.sweeps == 4


class TestAmbiguity:
    def test_two_parses(self, ambiguous_expr):
        parser = pool_for(ambiguous_expr)
        result = parser.parse(toks("n + n + n"))
        assert result.accepted
        assert result.is_ambiguous
        assert len(result.trees) == 2
        assert result.tree is None  # no unique tree

    def test_catalan_counts(self, ambiguous_expr):
        parser = pool_for(ambiguous_expr)
        catalan = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42}
        for operators, expected in catalan.items():
            sentence = toks(" ".join(["n"] + ["+ n"] * operators))
            assert len(parser.parse(sentence).trees) == expected

    def test_all_trees_yield_the_input(self, ambiguous_expr):
        parser = pool_for(ambiguous_expr)
        sentence = toks("n + n + n + n")
        result = parser.parse(sentence)
        for tree in result.trees:
            assert tokens_of(tree) == tuple(sentence)

    def test_trees_are_distinct(self, ambiguous_expr):
        parser = pool_for(ambiguous_expr)
        result = parser.parse(toks("n + n + n"))
        assert len({bracketed(t) for t in result.trees}) == len(result.trees)

    def test_unambiguous_sentence_single_tree(self, booleans):
        parser = pool_for(booleans)
        result = parser.parse(toks("true and false"))
        assert len(result.trees) == 1
        assert bracketed(result.tree) == "START(B(B(true) and B(false)))"


class TestSharing:
    def test_forest_shares_across_parses(self, ambiguous_expr):
        parser = pool_for(ambiguous_expr)
        result = parser.parse(toks("n + n + n"))
        left, right = result.trees
        # the two parses share their leaf nodes (hash-consing)
        from repro.runtime.forest import node_count

        total_if_unshared = node_count(left) + node_count(right)
        seen = set()
        shared_total = node_count(left, seen) + node_count(right, seen)
        assert shared_total < total_if_unshared


CYCLIC = """
    A ::= A
    A ::= a
    START ::= A
"""


def pool_run(grammar, tokens, build_trees, **kwargs):
    return pool_for(grammar, **kwargs).run(tokens, build_trees=build_trees)


def checkpointed_run(grammar, tokens, build_trees, **kwargs):
    pool = pool_for(grammar, **kwargs)
    return checkpointed_parse(pool, tokens, build_trees=build_trees).result


#: A plain and a checkpointed parse run the one PAR-PARSE loop, so both
#: reach its guards.
DRIVERS = (pool_run, checkpointed_run)


class TestGuards:
    def test_cyclic_grammar_detected(self):
        # A ::= A builds a new tree per turn (the step budget fires); the
        # nullable E hides left recursion, so the stack grows without
        # consuming input (the depth bound fires).
        hidden = """
            A ::= E A a
            A ::= a
            E ::=
            START ::= A
        """
        cases = ((CYCLIC, "parser steps"), (hidden, "exceeded depth"))
        for run in DRIVERS:
            for text, guard in cases:
                grammar = grammar_from_text(text)
                with pytest.raises(SweepLimitExceeded, match=guard):
                    run(grammar, toks("a"), True, max_sweep_steps=10_000)

    def test_cyclic_recognition_terminates_with_state_dedup(self):
        # In recognition mode signatures ignore trees, so the A ::= A loop
        # converges instead of spinning.
        for run in DRIVERS:
            assert run(grammar_from_text(CYCLIC), toks("a"), False).accepted

    def test_duplicate_parsers_dropped_in_recognition(self, ambiguous_expr):
        # In recognition mode signatures ignore trees, so the ambiguous
        # derivations converge onto identical stacks and get merged.
        for run in DRIVERS:
            result = run(ambiguous_expr, toks("n + n + n + n"), False)
            assert result.accepted
            assert result.stats.duplicates_dropped > 0
