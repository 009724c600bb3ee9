"""LR-PARSE (section 3.1) and the Fig. 4.2 move trace."""

import pytest

from repro.grammar.builders import grammar_from_text
from repro.lr.generator import ConventionalGenerator
from repro.runtime.errors import AmbiguousInputError, ParseError
from repro.runtime.forest import bracketed, tokens_of
from repro.runtime.lr_parse import SimpleLRParser
from repro.runtime.trace import Trace

from ..conftest import toks


@pytest.fixture()
def boolean_parser(booleans):
    control = ConventionalGenerator(booleans).generate()
    return SimpleLRParser(control, booleans)


class TestRecognition:
    def test_accepts_simple_sentences(self, boolean_parser):
        assert boolean_parser.recognize(toks("true"))
        assert boolean_parser.recognize(toks("true or false"))
        assert boolean_parser.recognize(toks("true and false"))

    def test_rejects_garbage(self, boolean_parser):
        assert not boolean_parser.recognize(toks("or"))
        assert not boolean_parser.recognize(toks("true or"))
        assert not boolean_parser.recognize(toks("true true"))
        assert not boolean_parser.recognize(toks(""))

    def test_parse_raises_on_error(self, boolean_parser):
        with pytest.raises(ParseError) as excinfo:
            boolean_parser.parse(toks("true or"))
        assert excinfo.value.position == 2  # the end marker

    def test_ambiguous_cell_raises(self, boolean_parser):
        # 'true or false or true' needs a fork; LR-PARSE cannot
        with pytest.raises(AmbiguousInputError):
            boolean_parser.parse(toks("true or false or true"))


class TestFig42Trace:
    """The exact moves of Fig. 4.2 for the sentence 'true or false'."""

    def test_moves(self, boolean_parser):
        trace = Trace()
        result = boolean_parser.parse(toks("true or false"), trace=trace)
        assert result.accepted
        assert trace.moves() == (
            ("shift", 0),   # true: state 0 → 2
            ("reduce", 2),  # B ::= true, back to 0, GOTO B → 1
            ("shift", 1),   # or: state 1 → 5
            ("shift", 5),   # false: state 5 → 3
            ("reduce", 3),  # B ::= false, GOTO(5, B) → 7
            ("reduce", 7),  # B ::= B or B, back to 0, GOTO B → 1
            ("accept", 1),
        )

    def test_trace_renders(self, boolean_parser):
        trace = Trace()
        boolean_parser.parse(toks("true or false"), trace=trace)
        rendered = trace.render()
        assert "shift" in rendered and "accept" in rendered
        assert len(trace) == 7


class TestTrees:
    def test_tree_covers_input(self, boolean_parser):
        result = boolean_parser.parse(toks("true and false"))
        assert tokens_of(result.tree) == tuple(toks("true and false"))

    def test_tree_structure(self, boolean_parser):
        result = boolean_parser.parse(toks("true and false"))
        assert bracketed(result.tree) == "START(B(B(true) and B(false)))"

    def test_tree_skipped_in_recognition_mode(self, boolean_parser):
        result = boolean_parser.parse(toks("true"), build_tree=False)
        assert result.accepted
        assert result.tree is None

    def test_without_grammar_returns_top_symbol_tree(self, booleans):
        control = ConventionalGenerator(booleans).generate()
        parser = SimpleLRParser(control)  # no grammar: no START recovery
        result = parser.parse(toks("true"))
        assert bracketed(result.tree) == "B(true)"


class TestEpsilonRules:
    def test_parses_with_epsilon(self, epsilon_grammar):
        control = ConventionalGenerator(epsilon_grammar).generate()
        parser = SimpleLRParser(control, epsilon_grammar)
        result = parser.parse(toks("b"))
        assert result.accepted
        assert bracketed(result.tree) == "START(S(A() b C()))"

    def test_epsilon_start(self):
        grammar = grammar_from_text(
            """
            S ::=
            START ::= S
            """
        )
        control = ConventionalGenerator(grammar).generate()
        parser = SimpleLRParser(control, grammar)
        assert parser.recognize([])
        assert not parser.recognize(toks("x"))
