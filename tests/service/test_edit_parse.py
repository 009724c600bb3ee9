"""The v3 ``edit-parse`` command and the per-session checkpoint store."""

from __future__ import annotations

import pytest

from repro.api import engines
from repro.service.dispatcher import Dispatcher
from repro.service.scheduler import Scheduler
from repro.service.workspace import CHECKPOINT_CAPACITY

GRAMMAR = "E ::= a\nE ::= b\nE ::= E + a\nE ::= E + b\nSTART ::= E"


@pytest.fixture()
def dispatcher():
    d = Dispatcher()
    response = d.handle({"cmd": "open", "session": "s", "grammar": GRAMMAR})
    assert response["opened"] == "s"
    return d


def checkpoint_parse(dispatcher, tokens, **extra):
    response = dispatcher.handle(
        {"cmd": "parse", "session": "s", "tokens": tokens, "checkpoint": True, **extra}
    )
    assert "error" not in response, response
    return response


def edit_parse(dispatcher, base, start, end, replacement="", **extra):
    return dispatcher.handle(
        {
            "cmd": "edit-parse",
            "session": "s",
            "base": base,
            "edit": {"start": start, "end": end, "replacement": replacement},
            **extra,
        }
    )


class TestCheckpointParse:
    def test_response_carries_a_result_id(self, dispatcher):
        response = checkpoint_parse(dispatcher, "a + a")
        assert response["accepted"] is True
        assert isinstance(response["result"], str) and response["result"]
        assert response["cache"] is False

    def test_repeat_is_a_cache_hit_with_the_same_id(self, dispatcher):
        first = checkpoint_parse(dispatcher, "a + a")
        second = checkpoint_parse(dispatcher, "a + a")
        assert second["cache"] is True
        assert second["result"] == first["result"]

    def test_plain_parse_has_no_result_id(self, dispatcher):
        response = dispatcher.handle(
            {"cmd": "parse", "session": "s", "tokens": "a + a"}
        )
        assert "result" not in response


class TestEditParse:
    def test_edit_reuses_checkpoints(self, dispatcher):
        base = checkpoint_parse(dispatcher, "a + a + b")["result"]
        response = edit_parse(dispatcher, base, 2, 3, "b")
        assert response["accepted"] is True
        assert response["base"] == base
        assert response["reuse"]["reused_prefix"] == 2
        assert response["trees"] == ["START(E(E(E(a) + b) + b))"]
        assert response["tree_count"] == 1

    def test_naming_the_default_engine_keeps_the_result_id(self, dispatcher):
        base = checkpoint_parse(dispatcher, "a + a + b")["result"]
        named = edit_parse(dispatcher, base, 2, 3, "b", engine="gss")
        unnamed = edit_parse(dispatcher, base, 2, 3, "b")
        assert named["cache"] is False
        assert unnamed["cache"] is True
        assert unnamed["result"] == named["result"]

    @pytest.mark.parametrize("engine", engines())
    def test_every_engine_answers_one_reuse_shape(self, dispatcher, engine):
        base = checkpoint_parse(dispatcher, "a + a + b", engine=engine)["result"]
        response = edit_parse(dispatcher, base, 2, 3, "b")
        assert response["engine"] == engine
        assert sorted(response["reuse"]) == [
            "converged_at",
            "fallback",
            "parsed_tokens",
            "resumed_at",
            "reused_prefix",
            "total_tokens",
        ]

    def test_matches_a_scratch_parse(self, dispatcher):
        base = checkpoint_parse(dispatcher, "a + a + b")["result"]
        edited = edit_parse(dispatcher, base, 0, 1, "b")
        scratch = dispatcher.handle(
            {"cmd": "parse", "session": "s", "tokens": "b + a + b"}
        )
        assert edited["accepted"] == scratch["accepted"] is True
        assert edited["trees"] == scratch["trees"]

    def test_repeated_edit_is_cached(self, dispatcher):
        base = checkpoint_parse(dispatcher, "a + a")["result"]
        first = edit_parse(dispatcher, base, 2, 3, "b")
        second = edit_parse(dispatcher, base, 2, 3, "b")
        assert first["cache"] is False
        assert second["cache"] is True
        assert second["result"] == first["result"]

    def test_chained_edits_resume_from_the_previous_edit(self, dispatcher):
        base = checkpoint_parse(dispatcher, "a + a + b")["result"]
        first = edit_parse(dispatcher, base, 4, 5, "a")
        second = edit_parse(dispatcher, first["result"], 0, 1, "b")
        assert second["accepted"] is True
        assert second["trees"] == ["START(E(E(E(b) + a) + a))"]

    def test_rejecting_edit_reports_diagnostics(self, dispatcher):
        base = checkpoint_parse(dispatcher, "a + a")["result"]
        response = edit_parse(dispatcher, base, 1, 2, "b")
        assert response["accepted"] is False
        assert response["diagnostics"]["token_index"] == 1
        assert response["diagnostics"]["expected"] == ["$", "+"]

    def test_unknown_base_is_an_error(self, dispatcher):
        response = edit_parse(dispatcher, "doesnotexist", 0, 0)
        assert "unknown result" in response["error"]

    def test_grammar_edit_drops_the_checkpoint_store(self, dispatcher):
        base = checkpoint_parse(dispatcher, "a + a")["result"]
        dispatcher.handle(
            {"cmd": "add-rule", "session": "s", "rule": "E ::= E + c"}
        )
        response = edit_parse(dispatcher, base, 2, 3, "c")
        assert "unknown result" in response["error"]
        # Re-establishing a checkpoint under the new version works.
        fresh = checkpoint_parse(dispatcher, "a + a")["result"]
        again = edit_parse(dispatcher, fresh, 2, 3, "c")
        assert again["accepted"] is True

    def test_engine_field_is_honoured(self, dispatcher):
        base = checkpoint_parse(dispatcher, "a + a", engine="lazy")["result"]
        response = edit_parse(dispatcher, base, 2, 3, "b", engine="lazy")
        assert response["accepted"] is True
        assert response["engine"] == "lazy"

    def test_out_of_range_edit_is_an_error_response(self, dispatcher):
        base = checkpoint_parse(dispatcher, "a")["result"]
        response = edit_parse(dispatcher, base, 0, 9)
        assert "edit range" in response["error"]

    @pytest.mark.parametrize(
        "request_patch, fragment",
        [
            ({"base": 7}, "result id string"),
            ({"edit": "nope"}, "object in the 'edit' field"),
            ({"edit": {"start": "x", "end": 1}}, "integer 'start' and 'end'"),
            ({"edit": {"start": 0, "end": 0, "replacement": 5}}, "string or"),
            # JSON booleans are Python ints too; positions must be numbers.
            ({"edit": {"start": True, "end": True}}, "integer 'start' and 'end'"),
            ({"edit": {"start": 0, "end": False}}, "integer 'start' and 'end'"),
        ],
    )
    def test_malformed_requests(self, dispatcher, request_patch, fragment):
        base = checkpoint_parse(dispatcher, "a")["result"]
        request = {
            "cmd": "edit-parse",
            "session": "s",
            "base": base,
            "edit": {"start": 0, "end": 0, "replacement": ""},
        }
        request.update(request_patch)
        response = dispatcher.handle(request)
        assert fragment in response["error"]

    def test_store_capacity_evicts_oldest(self, dispatcher):
        first = checkpoint_parse(dispatcher, "a")["result"]
        for index in range(CHECKPOINT_CAPACITY):
            checkpoint_parse(dispatcher, "a" + " + a" * (index + 1))
        response = edit_parse(dispatcher, first, 0, 1, "b")
        assert "unknown result" in response["error"]


class TestCheckpointRecognize:
    """Recognition-mode checkpoints: the convergence-friendly regime."""

    def test_recognize_checkpoint_returns_a_result_id(self, dispatcher):
        response = dispatcher.handle(
            {
                "cmd": "recognize",
                "session": "s",
                "tokens": "a + a + b",
                "checkpoint": True,
            }
        )
        assert response["accepted"] is True
        assert isinstance(response["result"], str)
        assert "trees" not in response

    def test_edit_over_a_recognition_base_converges(self, dispatcher):
        base = dispatcher.handle(
            {
                "cmd": "recognize",
                "session": "s",
                "tokens": "a + a + b + a",
                "checkpoint": True,
            }
        )["result"]
        response = edit_parse(dispatcher, base, 2, 3, "b")
        assert response["accepted"] is True
        assert "trees" not in response and "tree_count" not in response
        assert response["reuse"]["converged_at"] is not None
        assert response["reuse"]["parsed_tokens"] < 4

    def test_recognition_chain_and_cache(self, dispatcher):
        base = dispatcher.handle(
            {
                "cmd": "recognize",
                "session": "s",
                "tokens": "a + a",
                "checkpoint": True,
            }
        )["result"]
        first = edit_parse(dispatcher, base, 2, 3, "b")
        second = edit_parse(dispatcher, first["result"], 0, 1, "b")
        assert second["accepted"] is True
        repeat = edit_parse(dispatcher, first["result"], 0, 1, "b")
        assert repeat["cache"] is True

    def test_parse_and_recognize_checkpoints_have_distinct_ids(self, dispatcher):
        parsed = checkpoint_parse(dispatcher, "a + a")["result"]
        recognized = dispatcher.handle(
            {
                "cmd": "recognize",
                "session": "s",
                "tokens": "a + a",
                "checkpoint": True,
            }
        )["result"]
        assert parsed != recognized


class TestSchedulerRouting:
    def test_edit_parse_routes_through_the_sharded_scheduler(self):
        # Process shards: the checkpoint lives in the owning child, and
        # the edit-parse must be routed back to it by session.
        scheduler = Scheduler(workers=2, mode="process")
        try:
            scheduler.submit(
                {"cmd": "open", "session": "s", "grammar": GRAMMAR}
            ).result(10)
            parsed = scheduler.submit(
                {
                    "cmd": "parse",
                    "session": "s",
                    "tokens": "a + a",
                    "checkpoint": True,
                }
            ).result(10)
            assert parsed["accepted"] is True
            edited = scheduler.submit(
                {
                    "cmd": "edit-parse",
                    "session": "s",
                    "base": parsed["result"],
                    "edit": {"start": 2, "end": 3, "replacement": "b"},
                }
            ).result(10)
            assert edited["accepted"] is True
            assert edited["reuse"]["reused_prefix"] == 2
        finally:
            scheduler.close()
