"""Rejection diagnostics: token position, line/column, expected sets.

The expected set is read off the ACTION rows of the states the parser
died in, so it must be exactly the set of terminals that *would* have
been accepted — and it must track incremental grammar edits: ADD-RULE
makes new terminals expected, DELETE-RULE retracts them (MODIFY
un-expands the affected states; the probe re-expands against the edited
grammar).
"""

import pytest

from repro.api import Language
from repro.sdf.corpus import EXP_SDF, sdf_grammar
from repro.sdf.lexer import terminal_stream
from tests.conftest import BOOLEANS

#: engines whose rejections carry a position (all of them).
ALL_ENGINES = ("lazy", "gss", "earley")


@pytest.fixture()
def booleans_lang():
    return Language.from_text(BOOLEANS)


class TestBooleansExpectedSets:
    def test_unexpected_end_of_input(self, booleans_lang):
        outcome = booleans_lang.parse("true and")
        diag = outcome.diagnostic
        assert not outcome.accepted
        assert diag is not None
        assert diag.token_index == 2  # == input length: ended too early
        assert diag.token is None
        assert diag.message == "unexpected end of input"
        assert set(diag.expected) == {"true", "false"}

    def test_unexpected_token_mid_input(self, booleans_lang):
        outcome = booleans_lang.parse("true banana true")
        diag = outcome.diagnostic
        assert diag.token_index == 1
        assert diag.token == "banana"
        # After one complete B only a connective (or the end) may follow.
        assert set(diag.expected) == {"and", "or", "$"}

    def test_line_and_column_from_offsets(self, booleans_lang):
        outcome = booleans_lang.parse("true and\nfalse or or")
        diag = outcome.diagnostic
        assert diag.line == 2
        assert diag.column == 10
        assert diag.token == "or"

    def test_expected_set_agrees_across_engines(self, booleans_lang):
        for engine in ALL_ENGINES:
            diag = booleans_lang.recognize("true and", engine=engine).diagnostic
            assert diag is not None, engine
            assert set(diag.expected) == {"true", "false"}, engine
            assert diag.token_index == 2, engine

    def test_accepted_outcome_has_no_diagnostic(self, booleans_lang):
        assert booleans_lang.parse("true or false").diagnostic is None


class TestExpectedSetsTrackModify:
    def test_add_rule_extends_expected_set(self, booleans_lang):
        before = booleans_lang.parse("true and").diagnostic
        assert set(before.expected) == {"true", "false"}
        booleans_lang.add_rule("B ::= not B")
        after = booleans_lang.parse("true and").diagnostic
        assert set(after.expected) == {"true", "false", "not"}

    def test_delete_rule_shrinks_expected_set(self, booleans_lang):
        booleans_lang.add_rule("B ::= not B")
        booleans_lang.delete_rule("B ::= false")
        diag = booleans_lang.parse("true and").diagnostic
        assert set(diag.expected) == {"true", "not"}

    def test_connective_set_tracks_edits(self, booleans_lang):
        booleans_lang.add_rule("B ::= B xor B")
        diag = booleans_lang.parse("true banana").diagnostic
        assert set(diag.expected) == {"and", "or", "xor", "$"}
        booleans_lang.delete_rule("B ::= B xor B")
        diag = booleans_lang.parse("true banana").diagnostic
        assert set(diag.expected) == {"and", "or", "$"}

    def test_tracking_holds_for_every_engine(self, booleans_lang):
        booleans_lang.add_rule("B ::= not B")
        for engine in ALL_ENGINES:
            diag = booleans_lang.recognize("true and", engine=engine).diagnostic
            assert set(diag.expected) == {"true", "false", "not"}, engine
        booleans_lang.delete_rule("B ::= not B")
        for engine in ALL_ENGINES:
            diag = booleans_lang.recognize("true and", engine=engine).diagnostic
            assert set(diag.expected) == {"true", "false"}, engine


class TestSdfCorpusExpectedSets:
    """The §7 SDF grammar: diagnostics over a realistic-size automaton."""

    @pytest.fixture()
    def sdf_lang(self):
        return Language(sdf_grammar())

    def test_truncated_module_header(self, sdf_lang):
        # "module x" and then nothing: a section keyword (or module end)
        # must follow.
        tokens = terminal_stream("module x")
        outcome = sdf_lang.parse(tokens)
        diag = outcome.diagnostic
        assert not outcome.accepted
        assert diag.token_index == len(tokens)
        assert "begin" in diag.expected

    def test_wrong_token_after_sorts(self, sdf_lang):
        tokens = terminal_stream("module x begin context-free syntax sorts ->")
        diag = sdf_lang.parse(tokens).diagnostic
        assert diag.token == "->"
        assert "ID" in diag.expected

    def test_expected_sets_agree_across_engines_on_sdf(self, sdf_lang):
        tokens = terminal_stream("module x begin")
        reference = None
        for engine in ALL_ENGINES:
            diag = sdf_lang.recognize(tokens, engine=engine).diagnostic
            assert diag is not None, engine
            expected = set(diag.expected)
            if reference is None:
                reference = expected
            assert expected == reference, engine
        assert reference  # non-empty

    def test_sdf_expected_set_tracks_modification(self, sdf_lang):
        from repro.sdf.corpus import modification_rule

        tokens = terminal_stream("module x begin context-free syntax functions (")
        before = sdf_lang.parse(tokens).diagnostic
        # The §7 modification adds "(" CF-ELEM+ ")?" -> CF-ELEM; before it,
        # "(" cannot start a CF-ELEM.
        rule = modification_rule(sdf_lang.grammar)
        sdf_lang.add_rule(rule)
        after = sdf_lang.parse(tokens).diagnostic
        assert before is not None and after is not None
        assert set(before.expected) != set(after.expected) or (
            before.token_index != after.token_index
        )


class TestFromSdfDiagnostics:
    """End-to-end: raw text in, positioned diagnostics out."""

    @pytest.fixture()
    def exp(self):
        return Language.from_sdf(EXP_SDF)

    def test_raw_text_round_trip(self, exp):
        assert exp.parse("true and not false").accepted
        assert not exp.parse("true and and").accepted

    def test_positioned_syntax_error(self, exp):
        diag = exp.parse("true and\nnot and").diagnostic
        assert diag.kind == "syntax"
        assert diag.line == 2
        assert diag.column == 5
        assert diag.token == "and"
        assert set(diag.expected) == {"true", "false", "not", "neg"}

    def test_lexical_error_is_a_diagnostic_not_an_exception(self, exp):
        outcome = exp.parse("true @@ false")
        assert not outcome.accepted
        assert outcome.diagnostic.kind == "lexical"
        assert outcome.diagnostic.line == 1
        assert outcome.diagnostic.column == 6  # the first '@' (offset 5)
