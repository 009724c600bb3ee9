"""Grammar serialization round trips over random grammars."""

from hypothesis import given, settings

from repro.lr.serialize import grammar_from_dict, grammar_to_dict

from .strategies import grammars


@settings(max_examples=40, deadline=None)
@given(grammars())
def test_encoding_is_deterministic_and_stable(grammar):
    first = grammar_to_dict(grammar)
    second = grammar_to_dict(grammar_from_dict(first))
    assert first == second  # a fixpoint after one round trip


@settings(max_examples=30, deadline=None)
@given(grammars())
def test_structure_preserved(grammar):
    clone = grammar_from_dict(grammar_to_dict(grammar))
    assert clone.rules == grammar.rules
    assert clone.nonterminals == grammar.nonterminals
    assert clone.terminals == grammar.terminals
