"""Unit tests for the incremental re-parsing runtime (checkpoint/resume)."""

from __future__ import annotations

import pytest

from repro.core.incremental import IncrementalGenerator
from repro.grammar.builders import grammar_from_text, rule_from_text
from repro.grammar.symbols import Terminal
from repro.lr.compiled import CompiledControl
from repro.runtime.gss import GSSParser
from repro.runtime.incremental import Edit, checkpointed_parse, reparse

GRAMMAR_TEXT = """
    E ::= a
    E ::= b
    E ::= E + a
    E ::= E + b
    START ::= E
"""


def tokens(text: str):
    return tuple(Terminal(part) for part in text.split())


@pytest.fixture()
def setup():
    grammar = grammar_from_text(GRAMMAR_TEXT)
    generator = IncrementalGenerator(grammar)
    control = CompiledControl(generator.control, grammar)
    parser = GSSParser(control)
    return grammar, parser


class TestEdit:
    def test_apply_and_delta(self):
        base = tokens("a + a + b")
        edit = Edit(2, 3, tokens("b"))
        assert edit.apply(base) == tokens("a + b + b")
        assert edit.delta == 0
        insert = Edit(1, 1, tokens("+ a"))
        assert insert.apply(base) == tokens("a + a + a + b")
        assert insert.delta == 2
        delete = Edit(0, 2)
        assert delete.apply(base) == tokens("a + b")
        assert delete.delta == -2

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            Edit(-1, 0)
        with pytest.raises(ValueError):
            Edit(3, 2)
        with pytest.raises(ValueError):
            Edit(0, 99).apply(tokens("a"))

    def test_key_is_name_based(self):
        edit = Edit(1, 2, tokens("a b"))
        assert edit.key() == (1, 2, ("a", "b"))


class TestCheckpoints:
    def test_full_parse_records_every_boundary(self, setup):
        _grammar, parser = setup
        base = checkpointed_parse(parser, tokens("a + a + b"))
        assert base.result.accepted
        assert len(base.frontiers) == 6
        assert all(frontier is not None for frontier in base.frontiers)
        assert base.checkpoint_count == 6
        assert base.reuse["parsed_tokens"] == 5

    def test_rejected_parse_stops_recording_at_death(self, setup):
        _grammar, parser = setup
        base = checkpointed_parse(parser, tokens("a + + b"))
        assert not base.result.accepted
        assert base.result.failure.token_index == 2
        # Boundaries up to the fatal sweep exist; nothing after it.
        assert base.frontiers[2] is not None
        assert base.frontiers[3] is None

    def test_resume_skips_the_prefix(self, setup):
        _grammar, parser = setup
        base = checkpointed_parse(parser, tokens("a + a + b + a + b"))
        out = reparse(parser, base, Edit(6, 7, tokens("a")))
        assert out.result.accepted
        assert out.reuse["resumed_at"] == 6
        assert out.reuse["reused_prefix"] == 6

    def test_recognition_converges_after_the_damage(self, setup):
        _grammar, parser = setup
        base = checkpointed_parse(parser, tokens("a + a + b + a + b"), build_trees=False)
        out = reparse(parser, base, Edit(2, 3, tokens("b")))
        assert out.result.accepted
        assert out.reuse["converged_at"] is not None
        assert out.reuse["parsed_tokens"] < 4

    def test_identity_edit_converges_instantly_in_tree_mode(self, setup):
        _grammar, parser = setup
        base = checkpointed_parse(parser, tokens("a + a + b"))
        out = reparse(parser, base, Edit(2, 2))  # no-op splice
        assert out.result.accepted
        assert out.reuse["converged_at"] == 2
        assert out.reuse["parsed_tokens"] == 0
        assert out.result.forest.brackets() == base.result.forest.brackets()

    def test_converged_outcome_chains(self, setup):
        """Checkpoints adopted from the base stay valid resume points."""
        _grammar, parser = setup
        stream = tokens("a + a + b + a + b")
        base = checkpointed_parse(parser, stream, build_trees=False)
        first = reparse(parser, base, Edit(2, 3, tokens("b")))
        assert first.reuse["converged_at"] is not None
        # Second edit lands *after* the adopted suffix checkpoints.
        second = reparse(parser, first, Edit(6, 7, tokens("b")))
        spliced = Edit(6, 7, tokens("b")).apply(first.tokens)
        assert second.result.accepted == parser.recognize(list(spliced))

    def test_edit_beyond_a_dead_base_reproduces_the_failure(self, setup):
        _grammar, parser = setup
        base = checkpointed_parse(parser, tokens("a + + b + a"), build_trees=False)
        assert not base.result.accepted
        out = reparse(parser, base, Edit(4, 5, tokens("b")))
        assert not out.result.accepted
        assert out.result.failure.token_index == 2
        assert out.reuse["resumed_at"] <= 2

    def test_length_changing_rejection_shifts_the_failure_index(self, setup):
        _grammar, parser = setup
        stream = tokens("a + a + + b")
        base = checkpointed_parse(parser, stream, build_trees=False)
        assert base.result.failure.token_index == 4
        # Insert two tokens before the error: index must shift by +2.
        edit = Edit(0, 0, tokens("a +"))
        out = reparse(parser, base, edit)
        scratch = parser.recognize_result(list(edit.apply(stream)))
        assert not out.result.accepted
        assert out.result.failure.token_index == scratch.failure.token_index == 6

    def test_frontiers_over_a_cyclic_stack_graph(self):
        # Hidden left recursion (E nullable) makes ε-reductions loop a
        # vertex onto itself; hashing and matching frontiers must stop.
        grammar = grammar_from_text(
            "A ::= E A a\nA ::= a\nE ::=\nSTART ::= A", {"A", "E"}
        )
        control = CompiledControl(IncrementalGenerator(grammar).control, grammar)
        parser = GSSParser(control)
        base = checkpointed_parse(parser, tokens("a a a a"), build_trees=False)
        for edit in (Edit(1, 2, tokens("a")), Edit(1, 1, tokens("a")), Edit(0, 1)):
            out = reparse(parser, base, edit)
            assert out.result.accepted == parser.recognize(list(edit.apply(base.tokens)))
            assert out.reuse["fallback"] is None

    def test_empty_input_edits(self, setup):
        _grammar, parser = setup
        base = checkpointed_parse(parser, ())
        assert base.result.accepted == parser.recognize([])
        grown = reparse(parser, base, Edit(0, 0, tokens("a")))
        assert grown.result.accepted
        shrunk = reparse(parser, grown, Edit(0, 1))
        assert shrunk.result.accepted == parser.recognize([])


class TestForestCap:
    def test_long_edit_chains_do_not_grow_the_forest_unboundedly(self, setup):
        _grammar, parser = setup
        stream = tokens("a" + " + a" * 20)
        outcome = checkpointed_parse(parser, stream)
        cap = 64 * (len(stream) + 16)
        for index in range(220):
            site = 2 * (index % 20)
            replacement = tokens("b" if index % 2 == 0 else "a")
            outcome = reparse(parser, outcome, Edit(site, site + 1, replacement))
            assert outcome.result.accepted
            assert outcome.forest.size <= cap + 4 * len(stream)
        # Still equivalent to a from-scratch parse after the chain.
        scratch = parser.parse(list(outcome.tokens))
        assert outcome.result.forest.brackets() == scratch.forest.brackets()


class TestInvalidation:
    def test_grammar_edit_bumps_epoch_and_falls_back(self, setup):
        grammar, parser = setup
        base = checkpointed_parse(parser, tokens("a + a"))
        grammar.add_rule(rule_from_text("E ::= E + c", {"E"}))
        assert base.version != grammar.revision
        out = reparse(parser, base, Edit(2, 3, tokens("c")))
        assert out.reuse["fallback"] == "grammar-modified"
        assert out.result.accepted

    def test_foreign_checkpoint_falls_back(self, setup):
        grammar, parser = setup
        other = GSSParser(parser.control)
        base = checkpointed_parse(other, tokens("a + a"))
        out = reparse(parser, base, Edit(0, 1, tokens("b")))
        assert out.reuse["fallback"] == "foreign-checkpoint"
        assert out.result.accepted

    def test_mode_change_falls_back(self, setup):
        _grammar, parser = setup
        base = checkpointed_parse(parser, tokens("a + a"), build_trees=False)
        out = reparse(parser, base, Edit(0, 1, tokens("b")), build_trees=True)
        assert out.reuse["fallback"] == "mode-changed"
        assert out.result.accepted
        assert out.result.forest.tree_count() == 1

    def test_reparse_requires_an_outcome(self, setup):
        _grammar, parser = setup
        with pytest.raises(TypeError):
            reparse(parser, None, Edit(0, 0))
