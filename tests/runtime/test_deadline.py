"""Cooperative request deadlines: scope mechanics and parser enforcement."""

import time

import pytest

from repro.api import Language
from repro.runtime.deadline import (
    CHECK_MASK,
    Deadline,
    active_deadline,
    deadline_scope,
)
from repro.runtime.errors import DeadlineExceeded, ParseError


class TestDeadlineScope:
    def test_no_deadline_by_default(self):
        assert active_deadline() is None

    def test_scope_installs_and_restores(self):
        with deadline_scope(1000) as deadline:
            assert active_deadline() is deadline
            assert deadline.ms == 1000
        assert active_deadline() is None

    def test_none_is_a_no_op(self):
        with deadline_scope(None) as deadline:
            assert deadline is None
            assert active_deadline() is None

    def test_scopes_nest_and_restore_outer(self):
        with deadline_scope(1000) as outer:
            with deadline_scope(50) as inner:
                assert active_deadline() is inner
            assert active_deadline() is outer
        assert active_deadline() is None

    def test_restored_even_when_body_raises(self):
        with pytest.raises(RuntimeError):
            with deadline_scope(1000):
                raise RuntimeError("boom")
        assert active_deadline() is None

    def test_thread_locality(self):
        import threading

        seen = []
        with deadline_scope(1000):
            thread = threading.Thread(
                target=lambda: seen.append(active_deadline())
            )
            thread.start()
            thread.join()
        assert seen == [None]


class TestDeadlineObject:
    def test_expires(self):
        deadline = Deadline(1)
        time.sleep(0.01)
        assert deadline.expired()
        assert deadline.remaining_ms() == 0.0

    def test_not_yet_expired(self):
        deadline = Deadline(60_000)
        assert not deadline.expired()
        assert deadline.remaining_ms() > 0

    def test_exceed_carries_partial_progress(self):
        error = Deadline(5).exceed(42)
        assert isinstance(error, DeadlineExceeded)
        assert error.deadline_ms == 5
        assert error.tokens_consumed == 42

    def test_not_a_parse_error(self):
        # ParseError is caught and converted to diagnostics deep inside
        # the engines; a deadline must never be swallowed that way.
        assert not issubclass(DeadlineExceeded, ParseError)

    def test_check_mask_is_power_of_two_minus_one(self):
        assert (CHECK_MASK & (CHECK_MASK + 1)) == 0


AMBIGUOUS = "E ::= E E\nE ::= x"


def ambiguous_language():
    return Language.from_text("START ::= E\n" + AMBIGUOUS)


class TestParserEnforcement:
    def test_pool_parser_honors_deadline(self):
        language = ambiguous_language()
        tokens = "x " * 150
        with deadline_scope(30):
            with pytest.raises(DeadlineExceeded) as info:
                language.parse(tokens)
        assert info.value.deadline_ms == 30
        assert info.value.tokens_consumed is not None
        assert 0 <= info.value.tokens_consumed <= 150

    def test_pool_parser_overshoot_is_bounded(self):
        language = ambiguous_language()
        tokens = "x " * 150
        budget_ms = 40
        started = time.monotonic()
        with deadline_scope(budget_ms):
            with pytest.raises(DeadlineExceeded):
                language.parse(tokens)
        elapsed_ms = (time.monotonic() - started) * 1000
        # The acceptance bar is 10x; the step-gated checks normally land
        # well under 2x even on a loaded CI runner.
        assert elapsed_ms < budget_ms * 10

    def test_parse_succeeds_inside_generous_deadline(self):
        language = ambiguous_language()
        with deadline_scope(60_000):
            outcome = language.parse("x x x")
        assert outcome.accepted

    def test_no_deadline_means_no_limit(self):
        language = ambiguous_language()
        outcome = language.parse("x x x x")
        assert outcome.accepted

    def test_gss_honors_deadline(self):
        from repro.grammar.builders import grammar_from_text
        from repro.lr.compiled import CompiledControl
        from repro.lr.generator import ConventionalGenerator
        from repro.runtime.gss import GSSParser

        grammar = grammar_from_text("START ::= E\n" + AMBIGUOUS)
        parser = GSSParser(CompiledControl(ConventionalGenerator(grammar).generate()))
        terminals = {t.name: t for t in grammar.terminals}
        tokens = [terminals["x"]] * 50
        # An already-expired deadline trips the per-position check on the
        # very first symbol — deterministic, no timing dependence.
        with deadline_scope(1):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceeded):
                parser.recognize(tokens)

    def test_rendering_honors_deadline(self):
        outcome = ambiguous_language().parse("x x x x x", engine="gss")
        assert outcome.forest.tree_count() == 14
        # Already expired: the first per-tree poll trips, with no token
        # count because the parse had finished.
        with deadline_scope(1):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceeded) as info:
                outcome.brackets(10)
        assert info.value.tokens_consumed is None
        assert "rendering" in str(info.value)

    def test_counting_honors_deadline(self):
        from repro.runtime.forest import ParseForest

        booleans = Language.from_text(
            "START ::= B\nB ::= true\nB ::= false\nB ::= B or B"
        )
        outcome = booleans.parse(" or ".join(["true"] * 8), engine="gss")
        forest = ParseForest(outcome.forest.roots)  # nothing counted yet
        # Already expired: the first poll of the count trips.
        with deadline_scope(1):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceeded) as info:
                forest.tree_count()
        assert info.value.tokens_consumed is None
        assert "while counting trees" in str(info.value)
        assert forest.tree_count() == 429  # Catalan(7), no deadline

    def test_incremental_sweep_honors_deadline(self):
        from repro.service.workspace import Workspace

        workspace = Workspace(16)
        workspace.open("d", grammar_text="START ::= E\n" + AMBIGUOUS)
        payload, _cached = workspace.parse("d", "x x x", checkpoint=True)
        result_id = payload["result"]
        with deadline_scope(1):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceeded):
                workspace.edit_parse(
                    "d", result_id, 1, 2, " ".join(["x"] * 120)
                )
