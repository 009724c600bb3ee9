"""SDF → core grammar normalization."""

import pytest

from repro import Language
from repro.grammar.symbols import NonTerminal, Terminal
from repro.sdf.ast import CfIter, CfLiteral, Function
from repro.sdf.normalize import NormalizationError, normalize, rule_for_function
from repro.sdf.parser import parse_sdf

TEXT = """
module lists
begin
  lexical syntax
    sorts LETTER, ID
    functions
      [a-z]   -> LETTER
      LETTER+ -> ID
  context-free syntax
    sorts PROGRAM, DECL
    functions
      "program" DECL+ "end"      -> PROGRAM
      "let" ID "=" ID            -> DECL
      "block" {DECL ";"}* "end"  -> DECL
end lists
"""


@pytest.fixture()
def grammar():
    return normalize(parse_sdf(TEXT))


class TestSymbols:
    def test_cf_sorts_become_nonterminals(self, grammar):
        assert NonTerminal("PROGRAM") in grammar.nonterminals
        assert NonTerminal("DECL") in grammar.nonterminals

    def test_lexical_sorts_become_terminals(self, grammar):
        assert Terminal("ID") in grammar.terminals

    def test_literals_become_terminals(self, grammar):
        assert Terminal("program") in grammar.terminals
        assert Terminal("=") in grammar.terminals

    def test_start_rule_added(self, grammar):
        (start_rule,) = grammar.start_rules()
        assert start_rule.rhs == (NonTerminal("PROGRAM"),)


class TestIterators:
    def test_plus_list_created(self, grammar):
        assert grammar.defines(NonTerminal("DECL+"))

    def test_separated_star_created(self, grammar):
        assert grammar.defines(NonTerminal("DECL-;-list?"))

    def test_language(self, grammar):
        lang = Language(grammar)
        assert lang.recognize("program let ID = ID end")
        assert lang.recognize("program let ID = ID let ID = ID end")
        assert lang.recognize("program block end end")
        assert lang.recognize("program block let ID = ID ; let ID = ID end end")
        assert not lang.recognize("program end")
        assert not lang.recognize("program block let ID = ID ; end end")


class TestStartSortSelection:
    def test_default_is_first_declared(self):
        grammar = normalize(parse_sdf(TEXT))
        (start_rule,) = grammar.start_rules()
        assert start_rule.rhs[0].name == "PROGRAM"

    def test_explicit_start_sort(self):
        grammar = normalize(parse_sdf(TEXT), start_sort="DECL")
        (start_rule,) = grammar.start_rules()
        assert start_rule.rhs[0].name == "DECL"

    def test_unknown_start_sort_rejected(self):
        with pytest.raises(NormalizationError):
            normalize(parse_sdf(TEXT), start_sort="NOPE")

    def test_no_sorts_rejected(self):
        text = """
module none
begin
  context-free syntax
end none
"""
        with pytest.raises(NormalizationError):
            normalize(parse_sdf(text))


class TestRuleForFunction:
    def test_modification_is_single_rule(self, grammar):
        definition = parse_sdf(TEXT)
        function = Function(
            elems=(CfLiteral("("), CfIter("DECL", "+"), CfLiteral(")")),
            sort="DECL",
        )
        size_before = len(grammar)
        rule = rule_for_function(grammar, function, definition.contextfree.sorts)
        # DECL+ already exists, so nothing was added yet
        assert len(grammar) == size_before
        grammar.add_rule(rule)
        lang = Language(grammar)
        assert lang.recognize("program ( let ID = ID ) end")

    def test_new_iterator_creates_support_rules(self, grammar):
        definition = parse_sdf(TEXT)
        function = Function(
            elems=(CfIter("PROGRAM", "+"),), sort="DECL"
        )
        size_before = len(grammar)
        rule_for_function(grammar, function, definition.contextfree.sorts)
        # PROGRAM+ did not exist: two support rules appear
        assert len(grammar) == size_before + 2
