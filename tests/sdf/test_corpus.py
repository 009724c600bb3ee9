"""E7 prerequisites — the measurement corpus of section 7.

These tests pin down the experimental setup: exact token counts
(37/166/342/475), bootstrap-parseability, self-description (SDF.sdf parsed
by the grammar derived from itself), and the single-rule modification.
"""

import pytest

from repro import Language
from repro.grammar.symbols import NonTerminal, Terminal
from repro.sdf.corpus import (
    CORPUS,
    TOKEN_COUNTS,
    corpus_tokens,
    modification_rule,
    sdf_definition,
    sdf_grammar,
)
from repro.sdf.lexer import terminal_stream
from repro.sdf.parser import parse_sdf


class TestTokenCounts:
    @pytest.mark.parametrize("name", list(CORPUS))
    def test_counts_match_the_paper(self, name):
        assert len(terminal_stream(CORPUS[name])) == TOKEN_COUNTS[name]

    def test_the_four_files(self):
        assert TOKEN_COUNTS == {
            "exp.sdf": 37,
            "Exam.sdf": 166,
            "SDF.sdf": 342,
            "ASF.sdf": 475,
        }


class TestWellFormedness:
    @pytest.mark.parametrize("name", list(CORPUS))
    def test_bootstrap_parseable(self, name):
        definition = parse_sdf(CORPUS[name])
        assert definition.validate() == []

    def test_sdf_grammar_statistics(self):
        grammar = sdf_grammar()
        assert len(grammar) == 61
        assert NonTerminal("CF-ELEM") in grammar.nonterminals
        assert Terminal("ID") in grammar.terminals


class TestSelfDescription:
    @pytest.fixture(scope="class")
    def lang(self):
        return Language(sdf_grammar())

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus_accepted_unambiguously(self, lang, name):
        result = lang.parse(corpus_tokens()[name])
        assert result.accepted
        assert result.ambiguity == 1

    def test_nonsense_rejected(self, lang):
        assert not lang.recognize([Terminal("end"), Terminal("module")])

    def test_truncated_input_rejected(self, lang):
        tokens = corpus_tokens()["exp.sdf"][:-2]
        assert not lang.recognize(tokens)


class TestModification:
    def test_rule_shape(self):
        grammar = sdf_grammar()
        rule = modification_rule(grammar)
        assert rule.lhs == NonTerminal("CF-ELEM")
        assert rule.rhs == (
            Terminal("("),
            NonTerminal("CF-ELEM+"),
            Terminal(")?"),
        )

    def test_single_add_rule(self):
        grammar = sdf_grammar()
        rule = modification_rule(grammar)
        size = len(grammar)
        grammar.add_rule(rule)
        assert len(grammar) == size + 1

    def test_inputs_still_parse_after_modification(self):
        grammar = sdf_grammar()
        lang = Language(grammar)
        tokens = corpus_tokens()
        assert lang.parse(tokens["Exam.sdf"]).accepted
        lang.add_rule(modification_rule(grammar))
        for name, stream in tokens.items():
            assert lang.parse(stream).accepted, name

    def test_modification_extends_language(self):
        grammar = sdf_grammar()
        lang = Language(grammar)
        # a function definition using the new optional group
        sentence = terminal_stream(
            """
module m
begin
  context-free syntax
    sorts S
    functions
""" ) + [Terminal("("), Terminal("ID"), Terminal(")?")] + terminal_stream(
            """
      -> S
end m
"""
        )
        assert not lang.recognize(sentence)
        lang.add_rule(modification_rule(grammar))
        assert lang.recognize(sentence)


class TestLexicalSection:
    def test_sdf_defines_its_lexical_sorts(self):
        definition = sdf_definition()
        defined = {f.sort for f in definition.lexical.functions}
        assert {"ID", "LITERAL", "CHAR-CLASS", "ITERATOR"} <= defined

    def test_layout_declared(self):
        definition = sdf_definition()
        assert "WHITE-SPACE" in definition.lexical.layout
        assert "COMMENT" in definition.lexical.layout
