"""``Language.reparse`` and the Engine reparse protocol."""

from __future__ import annotations

import pytest

from repro.api import Language, engines
from repro.runtime.errors import ParseError

GRAMMAR = """
    E ::= a
    E ::= b
    E ::= E + a
    E ::= E + b
    START ::= E
"""


@pytest.fixture()
def language():
    return Language.from_text(GRAMMAR)


class TestCheckpointedParse:
    def test_checkpoint_carries_handle_and_reuse(self, language):
        outcome = language.parse("a + a", checkpoint=True)
        assert outcome.accepted
        assert outcome.incremental is not None
        assert outcome.reuse["total_tokens"] == 3
        assert outcome.terminals and outcome.terminals[0].name == "a"

    def test_plain_parse_has_no_handle(self, language):
        outcome = language.parse("a + a")
        assert outcome.incremental is None
        assert outcome.reuse is None

    def test_unsupported_engine_checkpoint_degrades_gracefully(self, language):
        # earley builds no trees, so the checkpointed call goes through
        # recognize(); the checkpoint itself degrades to no handle.
        outcome = language.recognize("a + a", engine="earley", checkpoint=True)
        assert outcome.accepted
        assert outcome.incremental is None

    def test_trace_and_checkpoint_are_mutually_exclusive(self, language):
        from repro.runtime.trace import Trace

        with pytest.raises(ValueError, match="mutually exclusive"):
            language.parse("a + a", trace=Trace(), checkpoint=True)

    def test_checkpoints_keep_the_deterministic_stretch(self, monkeypatch):
        # A checkpointed parse runs the plain parse's loop, stretch
        # included: on a conflict-free grammar, once warm, neither makes
        # an ACTION call (the stretch reads the step cache directly).
        from repro.lr.compiled import CompiledControl

        language = Language.from_text("START ::= L\nL ::= x\nL ::= L x")
        text = " ".join(["x"] * 50)
        language.parse(text)
        calls = []
        action = CompiledControl.action

        def counted(self, state, symbol):
            calls.append(symbol)
            return action(self, state, symbol)

        monkeypatch.setattr(CompiledControl, "action", counted)
        counts = []
        for run in (
            lambda: language.parse(text),
            lambda: language.parse(text, checkpoint=True),
            lambda: language.recognize(text, checkpoint=True),
        ):
            del calls[:]
            assert run().accepted
            counts.append(len(calls))
        assert counts[1] <= counts[0] and counts[2] <= counts[0], counts


class TestReparse:
    def test_equivalent_to_scratch_parse(self, language):
        base = language.parse("a + a + b", checkpoint=True)
        edited = language.reparse(base, 2, 3, "b")
        scratch = language.parse("a + b + b")
        assert edited.accepted and scratch.accepted
        assert edited.brackets() == scratch.brackets()
        assert edited.engine == scratch.engine
        assert edited.reuse["reused_prefix"] == 2

    def test_replacement_accepts_string_and_sequences(self, language):
        base = language.parse("a + a", checkpoint=True)
        by_text = language.reparse(base, 2, 3, "b")
        rebase = language.parse("a + a", checkpoint=True)
        by_list = language.reparse(rebase, 2, 3, ["b"])
        assert by_text.accepted and by_list.accepted
        assert by_text.brackets() == by_list.brackets()

    def test_deletion_and_insertion(self, language):
        base = language.parse("a + a + b", checkpoint=True)
        deleted = language.reparse(base, 1, 3)
        assert deleted.accepted
        assert [t.name for t in deleted.terminals] == ["a", "+", "b"]
        inserted = language.reparse(deleted, 3, 3, "+ a")
        assert inserted.accepted
        assert [t.name for t in inserted.terminals] == ["a", "+", "b", "+", "a"]

    def test_unknown_explicit_engine_raises(self, language):
        base = language.parse("a + a", checkpoint=True)
        with pytest.raises(ValueError, match="unknown engine"):
            language.reparse(base, 2, 3, "b", engine="comipled")

    def test_out_of_range_edit_raises(self, language):
        base = language.parse("a + a", checkpoint=True)
        with pytest.raises(ParseError):
            language.reparse(base, 0, 99)
        with pytest.raises(ParseError):
            language.reparse(base, 4, 2)

    def test_rejection_diagnostics_match_scratch(self, language):
        base = language.parse("a + a", checkpoint=True)
        edited = language.reparse(base, 1, 2, "b")  # "a b a" is invalid
        scratch = language.parse(["a", "b", "a"])
        assert not edited.accepted and not scratch.accepted
        left = edited.diagnostic.to_payload()
        right = scratch.diagnostic.to_payload()
        assert left["token_index"] == right["token_index"]
        assert left["expected"] == right["expected"]

    def test_reuse_survives_payload_round_trip(self, language):
        base = language.parse("a + a", checkpoint=True)
        edited = language.reparse(base, 2, 3, "b")
        payload = edited.to_payload()
        assert payload["reuse"]["reused_prefix"] == 2

    def test_plain_outcome_falls_back(self, language):
        """A base without checkpoints still re-parses correctly."""
        base = language.parse("a + a")
        edited = language.reparse(base, 2, 3, "b")
        assert edited.accepted
        assert edited.reuse["fallback"] == "no-checkpoint"

    def test_engine_override_does_not_reuse_foreign_checkpoints(self, language):
        base = language.parse("a + a", checkpoint=True, engine="lazy")
        edited = language.reparse(base, 2, 3, "b", engine="gss")
        scratch = language.parse("a + b", engine="gss")
        assert edited.engine == "gss"
        assert edited.brackets() == scratch.brackets()
        assert edited.reuse["fallback"] == "no-checkpoint"

    def test_recognition_base_reparses_in_recognition_mode(self, language):
        base = language.recognize("a + a + b", checkpoint=True)
        edited = language.reparse(base, 2, 3, "b")
        assert edited.accepted
        assert not edited.trees_built

    def test_grammar_edit_between_parses_falls_back(self, language):
        base = language.parse("a + a", checkpoint=True)
        language.add_rule("E ::= E + c")
        edited = language.reparse(base, 2, 3, "c")
        scratch = language.parse("a + c")
        assert edited.accepted and scratch.accepted
        assert edited.reuse["fallback"] == "grammar-modified"

    @pytest.mark.parametrize(
        "name",
        [
            name
            for name, record in engines(detail=True).items()
            if record["supports_trees"]
        ],
    )
    def test_every_tree_engine_answers_reparse(self, language, name):
        base = language.parse("a + a + b", checkpoint=True, engine=name)
        edited = language.reparse(base, 2, 3, "b")
        scratch = language.parse("a + b + b", engine=name)
        assert edited.accepted == scratch.accepted is True
        assert edited.brackets() == scratch.brackets()

    def test_recognize_only_engine_answers_reparse(self, language):
        # A checkpoint taken in recognize mode keeps reparse in recognize
        # mode, so tree-less engines still answer edits.
        base = language.recognize("a + a + b", checkpoint=True, engine="earley")
        edited = language.reparse(base, 2, 3, "b")
        scratch = language.recognize("a + b + b", engine="earley")
        assert edited.accepted == scratch.accepted is True


    @pytest.mark.parametrize("name", engines())
    def test_every_engine_answers_one_reuse_shape(self, language, name):
        base = language.recognize("a + a + b", checkpoint=True, engine=name)
        edited = language.reparse(base, 2, 3, "b")
        assert set(edited.reuse) == {
            "converged_at",
            "fallback",
            "resumed_at",
            "reused_prefix",
            "parsed_tokens",
            "total_tokens",
        }
        assert edited.reuse["total_tokens"] == 5
        if not engines(detail=True)[name]["supports_reparse"]:
            assert edited.reuse == {
                "converged_at": None,
                "fallback": "engine-without-reparse",
                "resumed_at": 0,
                "reused_prefix": 0,
                "parsed_tokens": 5,
                "total_tokens": 5,
            }
