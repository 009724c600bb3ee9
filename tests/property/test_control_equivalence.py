"""Differential tests: CompiledControl ≡ LazyControl ≡ LR(0) ParseTable.

Every control tier must accept the same sentences and produce the same
number of distinct parse trees, on random grammars, both on the initial
grammar and across interleaved add/delete-rule edits (where the compiled
cache's invalidation has to keep pace with MODIFY while the LR(0) table
is rebuilt from scratch as the ground truth).  The merged-stack GSS
engine rides along as a fourth tier: same acceptance, and its packed
forest must count the same number of distinct derivations the pool
enumerates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalGenerator
from repro.grammar.grammar import Grammar
from repro.lr.compiled import CompiledControl
from repro.lr.graph import ItemSetGraph
from repro.lr.table import lr0_table
from repro.runtime.errors import CyclicForestError, SweepLimitExceeded
from repro.runtime.gss import GSSParser
from repro.runtime.parallel import PoolParser

from .strategies import derive_sentence, grammars, is_pool_safe, rules, sentences

MAX_STEPS = 20_000


def lazy_parser(grammar: Grammar) -> PoolParser:
    generator = IncrementalGenerator(grammar)
    return PoolParser(generator.control, grammar, max_sweep_steps=MAX_STEPS)


def compiled_parser(grammar: Grammar) -> PoolParser:
    generator = IncrementalGenerator(grammar)
    control = CompiledControl(generator.control, grammar)
    return PoolParser(control, grammar, max_sweep_steps=MAX_STEPS)


def table_parser(grammar: Grammar) -> PoolParser:
    """Ground truth: an LR(0) table built from scratch for this grammar."""
    graph = ItemSetGraph(grammar.copy())
    graph.expand_all()
    return PoolParser(
        lr0_table(graph), grammar, max_sweep_steps=MAX_STEPS
    )


def gss_parser(grammar: Grammar) -> GSSParser:
    generator = IncrementalGenerator(grammar)
    control = CompiledControl(generator.control, grammar)
    return GSSParser(control, max_steps_per_token=MAX_STEPS)


def outcome(parser: PoolParser, sentence):
    try:
        result = parser.parse(sentence)
    except SweepLimitExceeded:
        return "budget"
    return (result.accepted, len(result.trees))


def gss_outcome(parser: GSSParser, sentence):
    """``(accepted, tree count)`` — the pool ``outcome`` shape.

    The merged stack explores shared structure the linear stacks pay for
    per fork, so its step budget trips on different sentences; "budget"
    and "cyclic" mark outcomes with no pool-comparable answer.
    """
    try:
        result = parser.parse(list(sentence))
    except SweepLimitExceeded:
        return "budget"
    if not result.accepted:
        return (False, 0)
    try:
        return (True, result.forest.tree_count())
    except CyclicForestError:
        return "cyclic"


def assert_gss_agrees(gss: GSSParser, sentence, expected) -> None:
    merged = gss_outcome(gss, sentence)
    if expected == "budget" or merged in ("budget", "cyclic"):
        return
    assert merged == expected, sentence


def probe_sentences(draw, grammar, count=4):
    probes = []
    for seed in range(count):
        derived = derive_sentence(grammar, seed=seed)
        if derived is not None and len(derived) <= 12:
            probes.append(derived)
    probes.append(draw(sentences(max_length=5)))
    return probes


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_three_tiers_agree_on_random_grammars(data):
    grammar = data.draw(grammars())
    if not is_pool_safe(grammar):
        return
    lazy = lazy_parser(grammar.copy())
    compiled = compiled_parser(grammar.copy())
    gss = gss_parser(grammar.copy())
    table = table_parser(grammar)
    for sentence in probe_sentences(data.draw, grammar):
        expected = outcome(lazy, sentence)
        assert outcome(compiled, sentence) == expected
        assert outcome(table, sentence) == expected
        assert_gss_agrees(gss, sentence, expected)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compiled_tracks_interleaved_edits(data):
    """Edits must flush exactly the stale ACTION entries — a compiled
    parse after MODIFY agrees with a from-scratch LR(0) table."""
    grammar = data.draw(grammars(max_rules=8))
    if not is_pool_safe(grammar):
        return
    lazy_grammar = grammar.copy()
    compiled_grammar = grammar.copy()
    gss_grammar = grammar.copy()
    lazy = lazy_parser(lazy_grammar)
    compiled = compiled_parser(compiled_grammar)
    gss = gss_parser(gss_grammar)

    for _round in range(data.draw(st.integers(1, 3))):
        rule = data.draw(rules(nonterminal_count=4))
        if data.draw(st.booleans()) and rule in compiled_grammar:
            lazy_grammar.delete_rule(rule)
            compiled_grammar.delete_rule(rule)
            gss_grammar.delete_rule(rule)
        else:
            lazy_grammar.add_rule(rule)
            compiled_grammar.add_rule(rule)
            gss_grammar.add_rule(rule)
        if not is_pool_safe(compiled_grammar):
            return
        table = table_parser(compiled_grammar)
        for sentence in probe_sentences(data.draw, compiled_grammar, count=3):
            expected = outcome(table, sentence)
            assert outcome(compiled, sentence) == expected
            assert outcome(lazy, sentence) == expected
            assert_gss_agrees(gss, sentence, expected)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_recognition_agrees_too(data):
    """States-only signatures: recognition outcomes match across tiers."""
    grammar = data.draw(grammars())
    if not is_pool_safe(grammar):
        return
    lazy = lazy_parser(grammar.copy())
    compiled = compiled_parser(grammar.copy())
    gss = gss_parser(grammar.copy())
    table = table_parser(grammar)
    for sentence in probe_sentences(data.draw, grammar, count=3):
        try:
            expected = lazy.recognize(sentence)
            assert compiled.recognize(sentence) == expected
            assert table.recognize(sentence) == expected
            assert gss.recognize(list(sentence)) == expected
        except SweepLimitExceeded:
            return
