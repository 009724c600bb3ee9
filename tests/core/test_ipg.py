"""IPG, the paper's system end to end, through its one front door:
:class:`repro.api.Language` with the default whitespace tokenizer."""

import pytest

from repro import Language
from repro.grammar.grammar import GrammarError
from repro.grammar.rules import Rule
from repro.grammar.symbols import NonTerminal, Terminal

BOOLEANS = """
    B ::= true
    B ::= false
    B ::= B or B
    B ::= B and B
    START ::= B
"""


@pytest.fixture()
def lang():
    return Language.from_text(BOOLEANS)


class TestParsing:
    def test_parse_string_input(self, lang):
        outcome = lang.parse("true or false")
        assert outcome.accepted
        assert outcome.ambiguity == 1

    def test_parse_terminal_list(self, lang):
        outcome = lang.parse([Terminal("true"), Terminal("or"), Terminal("false")])
        assert outcome.accepted

    def test_mixed_token_input(self, lang):
        assert lang.parse(["true", Terminal("and"), "false"]).accepted

    def test_bad_token_type_rejected(self, lang):
        with pytest.raises(TypeError):
            lang.parse([42])  # type: ignore[list-item]

    def test_recognize(self, lang):
        assert lang.recognize("true and true")
        assert not lang.recognize("true and")

    def test_recognize_gss_agrees(self, lang):
        for sentence in ("true", "true or false", "or", "", []):
            assert (
                lang.recognize(sentence).accepted
                == lang.recognize(sentence, engine="gss").accepted
            ), sentence

    def test_trace_support(self, lang):
        from repro.runtime.trace import Trace

        trace = Trace()
        lang.parse("true", engine="lazy", trace=trace)
        assert len(trace) > 0


class TestEditing:
    def test_add_rule_text(self, lang):
        assert lang.add_rule("B ::= unknown") is True
        assert lang.recognize("unknown or true")

    def test_add_rule_object(self, lang):
        rule = Rule(NonTerminal("B"), [Terminal("nil")])
        assert lang.add_rule(rule)
        assert lang.recognize("nil")

    def test_add_existing_rule_is_noop(self, lang):
        assert lang.add_rule("B ::= true") is False

    def test_delete_rule_text(self, lang):
        assert lang.delete_rule("B ::= false")
        assert not lang.recognize("false")

    def test_rule_text_resolves_known_nonterminals(self, lang):
        lang.add_rule("B ::= not B")
        assert lang.recognize("not true")
        assert lang.recognize("not not false")

    def test_rule_text_new_lhs(self, lang):
        lang.add_rule("C ::= maybe")
        # C is unreachable but legal; language unchanged
        assert lang.recognize("true")
        assert not lang.recognize("maybe")

    def test_malformed_rule_text_rejected(self, lang):
        with pytest.raises(GrammarError):
            lang.add_rule("B -> true")
        with pytest.raises(GrammarError):
            lang.add_rule("::= x")

    def test_epsilon_rule_text(self, lang):
        lang.add_rule("B ::= ε")
        assert lang.recognize([])

    def test_epsilon_must_be_whole_body(self, lang):
        with pytest.raises(GrammarError):
            lang.add_rule("B ::= true ε false")
        with pytest.raises(GrammarError):
            lang.add_rule("B ::= ε ε")


class TestIntrospection:
    def test_summary_counts(self, lang):
        before = lang.summary()
        assert before["states"] == 1  # just the initial start state
        lang.parse("true and true")
        after = lang.summary()
        assert after["complete"] > 0
        assert after["states"] > before["states"]

    def test_table_fraction_grows_with_coverage(self, lang):
        lang.parse("true and true")
        partial = lang.table_fraction()
        lang.parse("false or false")
        fuller = lang.table_fraction()
        assert 0 < partial < fuller <= 1.0

    def test_repr(self, lang):
        assert repr(lang) == (
            "Language(5 rules, tokenizer=whitespace, engine=gss)"
        )

    def test_collect_garbage_roundtrip(self, lang):
        lang.parse("true and true or false")
        lang.add_rule("B ::= B xor B")
        lang.parse("true xor true")
        removed = lang.collect_garbage(force_sweep=True)
        assert removed >= 0
        assert lang.recognize("true xor false and true")


class TestConstructors:
    def test_from_rules(self):
        rules = [
            Rule(NonTerminal("B"), [Terminal("x")]),
            Rule(NonTerminal("START"), [NonTerminal("B")]),
        ]
        assert Language.from_rules(rules).recognize("x")

    def test_gc_flag(self):
        lang = Language.from_text(BOOLEANS, gc=False)
        assert lang.generator.collector is None
        lang = Language.from_text(BOOLEANS, gc=True)
        assert lang.generator.collector is not None


class TestVersion:
    def test_version_bumps_on_modify_only(self):
        lang = Language.from_text(BOOLEANS)
        before = lang.version
        lang.parse("true and true")
        lang.recognize("true", engine="gss")
        assert lang.version == before            # parsing never bumps
        assert lang.add_rule("B ::= maybe")
        assert lang.version == before + 1
        assert not lang.add_rule("B ::= maybe")  # no-op edit
        assert lang.version == before + 1
        assert lang.delete_rule("B ::= maybe")
        assert lang.version == before + 2
        assert not lang.delete_rule("B ::= maybe")  # no-op edit
        assert lang.version == before + 2
