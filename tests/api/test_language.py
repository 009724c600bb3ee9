"""The Language front door: construction, lexing, parsing, editing."""

import pytest

from repro import Language
from repro.api import ScannerTokenizer, WhitespaceTokenizer
from repro.grammar.grammar import GrammarError
from repro.sdf.corpus import EXP_SDF
from tests.conftest import BOOLEANS, EXPR


class TestConstruction:
    def test_from_text(self):
        lang = Language.from_text(BOOLEANS)
        assert lang.parse("true or false").accepted

    def test_from_rules(self):
        from repro.grammar.builders import rules_from_text

        lang = Language.from_rules(rules_from_text(BOOLEANS))
        assert lang.parse("true and true").accepted

    def test_from_sdf_parses_raw_text_end_to_end(self):
        # The acceptance criterion: no manual lexing anywhere.
        outcome = Language.from_sdf(EXP_SDF).parse("true and not false")
        assert outcome.accepted
        assert outcome.tree is not None

    def test_from_sdf_keeps_the_definition(self):
        lang = Language.from_sdf(EXP_SDF)
        assert lang.definition is not None
        assert lang.definition.name == "exp"

    def test_default_engine_must_exist(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Language.from_text(BOOLEANS, engine="turbo")

    def test_empty_language(self):
        lang = Language()
        assert not lang.parse("anything").accepted


class TestOutcome:
    def test_outcome_fields(self):
        lang = Language.from_text(BOOLEANS)
        outcome = lang.parse("true and false or true")
        assert outcome.accepted and bool(outcome)
        assert outcome.engine == "gss"
        assert outcome.elapsed >= 0
        assert outcome.ambiguity == outcome.forest.tree_count() == 2
        assert outcome.is_ambiguous
        assert outcome.stats["nodes_created"] > 0
        assert len(outcome.lexemes) == 5

    def test_recognize_builds_no_trees(self):
        lang = Language.from_text(BOOLEANS)
        outcome = lang.recognize("true")
        assert outcome.accepted
        assert outcome.forest is None
        assert outcome.trees_built is False

    def test_payload_shape(self):
        lang = Language.from_text(BOOLEANS)
        ok = lang.parse("true").to_payload()
        assert ok == {
            "accepted": True,
            "trees": ["START(B(true))"],
            "engine": "gss",
            "ambiguity": {"tree_count": 1, "enumerated": 1, "truncated": False},
        }
        bad = lang.parse("true or").to_payload()
        assert bad["accepted"] is False
        assert bad["diagnostics"]["expected"] == ["false", "true"]

    def test_trace_passthrough(self):
        from repro.runtime.trace import Trace

        lang = Language.from_text(BOOLEANS)
        trace = Trace()
        assert lang.parse("true", engine="lazy", trace=trace).accepted
        assert len(trace) > 0

    @pytest.mark.parametrize("engine", ["lazy"])
    def test_trace_honored_by_every_pool_backed_engine(self, engine):
        from repro.runtime.trace import Trace

        lang = Language.from_text(BOOLEANS)
        trace = Trace()
        assert lang.parse("true or false", engine=engine, trace=trace).accepted
        assert len(trace) > 0, engine

    def test_traced_gss_parse_answers_from_gss(self):
        # gss records no LR moves: a trace must not reroute the parse
        # through the (exponential on ambiguity) pool parser.
        from repro.runtime.trace import Trace

        lang = Language.from_text(BOOLEANS)
        sentence = "true or true and false or true"
        trace = Trace()
        traced = lang.parse(sentence, engine="gss", trace=trace)
        plain = lang.parse(sentence, engine="gss")
        assert traced.engine == "gss"
        assert traced.stats == plain.stats
        assert "reductions_applied" in traced.stats
        assert traced.to_payload()["ambiguity"] == plain.to_payload()["ambiguity"]
        assert len(trace) == 0


class TestEditing:
    def test_add_and_delete_rule_text(self):
        lang = Language.from_text(BOOLEANS)
        version = lang.version
        assert lang.add_rule("B ::= maybe")
        assert lang.version == version + 1
        assert lang.parse("maybe or true").accepted
        assert lang.delete_rule("B ::= maybe")
        assert not lang.parse("maybe").accepted

    def test_sorts_support_forward_references(self):
        lang = Language()
        lang.add_rule("CMD ::= turn N", sorts={"N"})
        lang.add_rule("N ::= 1")
        lang.add_rule("START ::= CMD")
        assert lang.parse("turn 1").accepted

    def test_mid_body_epsilon_rejected(self):
        lang = Language.from_text(BOOLEANS)
        with pytest.raises(GrammarError):
            lang.add_rule("B ::= true ε false")

    def test_whole_body_epsilon_is_the_empty_rule(self):
        lang = Language.from_text(BOOLEANS)
        lang.add_rule("B ::= ε")
        assert lang.parse([]).accepted

    def test_collect_garbage(self):
        lang = Language.from_text(BOOLEANS)
        lang.parse("true and true")
        lang.add_rule("B ::= B xor B")
        lang.parse("true xor true")
        assert lang.collect_garbage(force_sweep=True) >= 0
        assert lang.parse("true xor false").accepted


class TestTokenizerIntegration:
    def test_whitespace_is_the_default(self):
        assert isinstance(Language().tokenizer, WhitespaceTokenizer)

    def test_grammar_literal_scanner(self):
        lang = Language.from_text(EXPR)
        lang.use_tokenizer(ScannerTokenizer.from_grammar(lang.grammar))
        assert lang.parse("(n+n)*n").accepted
        assert lang.parse("( n + n ) * n").accepted  # layout skipped

    def test_grammar_literal_scanner_follows_edits(self):
        lang = Language.from_text(EXPR)
        lang.use_tokenizer(ScannerTokenizer.from_grammar(lang.grammar))
        lang.add_rule("F ::= F ! F")
        assert lang.parse("n!n").accepted
        lang.delete_rule("F ::= F ! F")
        assert lang.parse("n!n").diagnostic.kind == "lexical"

    def test_empty_text_is_the_empty_sentence(self):
        lang = Language.from_text(BOOLEANS)
        # With a real tokenizer "" is unambiguous: zero tokens.
        assert not lang.parse("").accepted
        lang.add_rule("B ::= ε")
        assert lang.parse("").accepted


class TestEngineTelemetry:
    """A default-engine parse feeds the ``repro.engine.*`` counters and
    its traced ``engine`` span with gss's own work counters."""

    def test_gss_counters_reach_the_registry_and_the_span(self):
        from repro import obs

        lang = Language.from_text(BOOLEANS)
        counter = obs.counter("repro.engine.reductions_applied")
        before = counter.value
        was_tracing = obs.tracing_enabled()
        obs.set_tracing(True)
        try:
            with obs.span("request") as root:
                outcome = lang.parse("true or false and true")
        finally:
            obs.set_tracing(was_tracing)
            obs.clear_spans()
        assert outcome.engine == "gss"
        assert counter.value - before == outcome.stats["reductions_applied"] > 0
        [parse] = root.children
        [engine] = [child for child in parse.children if child.name == "engine"]
        assert engine.attributes["general_sweeps"] == outcome.stats["general_sweeps"]
