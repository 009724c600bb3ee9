"""Grammar-analysis invariants, checked against actual derivations."""

from hypothesis import assume, given, settings, strategies as st

from repro.grammar.analysis import GrammarAnalysis
from repro.grammar.symbols import NonTerminal

from .strategies import derive_sentence, grammars


@settings(max_examples=60, deadline=None)
@given(grammars())
def test_first_contains_rule_firsts(grammar):
    analysis = GrammarAnalysis(grammar)
    for rule in grammar.rules:
        assert analysis.first_of(rule.rhs) <= analysis.first(rule.lhs)


@settings(max_examples=60, deadline=None)
@given(grammars())
def test_nullable_consistent_with_rules(grammar):
    analysis = GrammarAnalysis(grammar)
    for nonterminal in grammar.nonterminals:
        derivable_empty = any(
            analysis.sequence_nullable(rule.rhs)
            for rule in grammar.rules_for(nonterminal)
        )
        # nullable iff some body is entirely nullable
        assert analysis.is_nullable(nonterminal) == derivable_empty


@settings(max_examples=60, deadline=None)
@given(grammars())
def test_follow_contains_successor_firsts(grammar):
    analysis = GrammarAnalysis(grammar)
    for rule in grammar.rules:
        body = rule.rhs
        for index, symbol in enumerate(body):
            if isinstance(symbol, NonTerminal):
                tail_first = analysis.first_of(body[index + 1 :])
                assert tail_first <= analysis.follow(symbol)


@settings(max_examples=60, deadline=None)
@given(grammars(allow_epsilon=False), st.integers(0, 2 ** 32))
def test_derived_sentence_starts_in_first_of_start(grammar, seed):
    sentence = derive_sentence(grammar, seed)
    assume(sentence)
    analysis = GrammarAnalysis(grammar)
    assert sentence[0] in analysis.first(grammar.start)


@settings(max_examples=60, deadline=None)
@given(grammars())
def test_reachable_closed_under_rules(grammar):
    analysis = GrammarAnalysis(grammar)
    reachable = analysis.reachable()
    for nonterminal in reachable:
        for rule in grammar.rules_for(nonterminal):
            for symbol in rule.rhs:
                if isinstance(symbol, NonTerminal):
                    assert symbol in reachable


@settings(max_examples=60, deadline=None)
@given(grammars())
def test_useless_rules_never_reachable_and_productive(grammar):
    analysis = GrammarAnalysis(grammar)
    useless = analysis.useless_rules()
    reachable = analysis.reachable()
    productive = analysis.productive()
    for rule in grammar.rules:
        if rule in useless:
            continue
        assert rule.lhs in reachable
        for symbol in rule.rhs:
            if isinstance(symbol, NonTerminal):
                assert symbol in productive


@settings(max_examples=40, deadline=None)
@given(grammars(allow_epsilon=False), st.integers(0, 2 ** 32))
def test_productive_nonterminals_really_produce(grammar, seed):
    analysis = GrammarAnalysis(grammar)
    sentence = derive_sentence(grammar, seed)
    assume(sentence is not None)
    # a successful derivation exists ⇒ START's expansion target productive
    (start_rule,) = grammar.start_rules()
    for symbol in start_rule.rhs:
        if isinstance(symbol, NonTerminal):
            assert symbol in analysis.productive()
