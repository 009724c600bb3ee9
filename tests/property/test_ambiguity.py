"""Ambiguity accounting: the pool parser finds *all* parses.

The OBJ-style backtracking parser enumerates every derivation by brute
force (its one virtue); on grammars both engines handle, the pool parser's
tree count must match exactly.  The one-pass forest renderer is checked
against the decode-then-render pair it replaced, on both the multi-root
pool forests and the packed SPPF forests.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.api import Language
from repro.baselines.rd_backtrack import (
    BacktrackBudgetExceeded,
    BacktrackingParser,
)
from repro.grammar.analysis import GrammarAnalysis
from repro.grammar.rules import Rule
from repro.grammar.symbols import NonTerminal, Terminal
from repro.lr.generator import ConventionalGenerator
from repro.runtime.errors import SweepLimitExceeded
from repro.runtime.forest import (
    _count_into,
    _nth_tree,
    _render,
    bracketed,
    enumerate_strings,
    tokens_of,
)
from repro.runtime.parallel import PoolParser

from .strategies import derive_sentence, grammars, is_pool_safe, sentences


def _both_safe(grammar) -> bool:
    analysis = GrammarAnalysis(grammar)
    return (
        is_pool_safe(grammar)
        and not analysis.left_recursive()  # backtracking cannot do these
    )


@settings(max_examples=40, deadline=None)
@given(grammars(max_rules=7, allow_epsilon=False), sentences(max_length=5))
def test_pool_tree_count_matches_backtracking(grammar, sentence):
    assume(_both_safe(grammar))
    pool = PoolParser(
        ConventionalGenerator(grammar.copy()).generate(),
        grammar,
        max_sweep_steps=5_000,
    )
    backtracking = BacktrackingParser(grammar, max_steps=200_000)
    try:
        pool_trees = pool.parse(sentence).trees
        bt_trees = backtracking.parses(sentence)
    except (SweepLimitExceeded, BacktrackBudgetExceeded):
        assume(False)
        return
    assert len(pool_trees) == len(bt_trees)
    assert {bracketed(t) for t in pool_trees} == {
        bracketed(t) for t in bt_trees
    }


@settings(max_examples=40, deadline=None)
@given(grammars(allow_epsilon=False), st.integers(0, 2 ** 32))
def test_every_tree_yields_the_input(grammar, seed):
    assume(is_pool_safe(grammar))
    sentence = derive_sentence(grammar, seed)
    assume(sentence is not None)
    pool = PoolParser(
        ConventionalGenerator(grammar.copy()).generate(),
        grammar,
        max_sweep_steps=5_000,
    )
    try:
        result = pool.parse(sentence)
    except SweepLimitExceeded:
        assume(False)
        return
    assert result.accepted
    for tree in result.trees:
        assert tokens_of(tree) == tuple(sentence)


@settings(max_examples=40, deadline=None)
@given(grammars(), sentences(max_length=5))
def test_trees_are_pairwise_distinct(grammar, sentence):
    assume(is_pool_safe(grammar))
    pool = PoolParser(
        ConventionalGenerator(grammar.copy()).generate(),
        grammar,
        max_sweep_steps=5_000,
    )
    try:
        result = pool.parse(sentence)
    except SweepLimitExceeded:
        assume(False)
        return
    rendered = [bracketed(t) for t in result.trees]
    assert len(rendered) == len(set(rendered))


@st.composite
def ambiguous_parses(draw):
    """``(grammar, sentence)``: a random grammar plus ``A ::= x`` and
    ``A ::= A A`` (or ``A y A``), and a sentence of 3-6 ``x`` operands,
    which has a Catalan number of trees or more."""
    grammar = draw(grammars(max_rules=6, allow_epsilon=False))
    a, x = NonTerminal("A"), Terminal("x")
    middle = draw(st.sampled_from([[], [Terminal("y")]]))
    grammar.add_rule(Rule(a, [x]))
    grammar.add_rule(Rule(a, [a, *middle, a]))
    sentence = [x]
    for _ in range(draw(st.integers(2, 5))):
        sentence += [*middle, x]
    return grammar, sentence


def bracketed_reference(tree) -> str:
    """The recursive renderer over decoded trees that ``_render`` replaced."""
    if isinstance(tree, Terminal):
        return str(tree)
    inner = " ".join(bracketed_reference(child) for child in tree.children)
    return f"{tree.rule.lhs!s}({inner})"


#: indices checked per root; ambiguous random grammars can pack far more
RENDER_LIMIT = 200


@settings(max_examples=60, deadline=None)
@given(
    ambiguous_parses(),
    st.sampled_from(["lazy", "gss"]),
    st.one_of(st.none(), st.integers(1, 6)),
)
def test_render_matches_decode_then_render(parse, engine, max_trees):
    grammar, sentence = parse
    assume(is_pool_safe(grammar))
    language = Language(grammar.copy(), max_sweep_steps=5_000)
    try:
        outcome = language.parse(sentence, engine=engine)
    except SweepLimitExceeded:
        assume(False)
        return
    assume(outcome.accepted)
    forest = outcome.forest
    for root in forest.roots:
        counts = {}
        indices = range(min(_count_into(root, counts), RENDER_LIMIT))
        reference = [
            bracketed_reference(_nth_tree(root, index, counts))
            for index in indices
        ]
        assert [_render(root, index, counts) for index in indices] == reference
        assert list(enumerate_strings(root, RENDER_LIMIT)) == reference
    limit = max_trees if max_trees is not None else RENDER_LIMIT
    assert forest.brackets(limit) == sorted(
        bracketed_reference(tree) for tree in forest.trees(limit)
    )
    payload = outcome.to_payload(max_trees=max_trees)
    enumerated = payload["ambiguity"]["enumerated"]
    assert payload["trees"] == sorted(
        bracketed_reference(tree) for tree in forest.trees(enumerated)
    )
