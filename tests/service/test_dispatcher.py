"""The JSON request protocol: golden exchanges, caching, invalidation."""

from repro.service import Dispatcher, ProtocolError, iter_requests
from repro.runtime.forest import ENUMERATION_CAP
from repro.service.protocol import DEFAULT_MAX_TREES, encode, parse_request

import pytest

BOOLEANS = "START ::= B\nB ::= true\nB ::= false\nB ::= B or B"


@pytest.fixture()
def dispatcher():
    return Dispatcher()


@pytest.fixture()
def booleans_dispatcher(dispatcher):
    response = dispatcher.handle(
        {"cmd": "open", "session": "s1", "grammar": BOOLEANS}
    )
    assert "error" not in response
    return dispatcher


class TestResponseEnvelope:
    def test_every_response_carries_time(self, dispatcher):
        for request in (
            {"cmd": "info"},
            {"cmd": "sessions"},
            {"cmd": "metrics"},
            {"cmd": "nope"},
            {"no-cmd": True},
        ):
            assert "time" in dispatcher.handle(request)

    def test_session_is_echoed(self, booleans_dispatcher):
        response = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true"}
        )
        assert response["session"] == "s1"
        assert response["cmd"] == "parse"

    def test_errors_are_data_not_exceptions(self, dispatcher):
        assert "error" in dispatcher.handle({"cmd": "parse", "session": "ghost",
                                             "tokens": "x"})
        assert "error" in dispatcher.handle({"cmd": "parse"})
        assert "error" in dispatcher.handle({"cmd": "frobnicate"})
        assert "error" in dispatcher.handle("not a dict")
        assert "error" in dispatcher.handle({"cmd": "add-rule", "session": "s",
                                             "rule": "B -> x"})


class TestOpenParse:
    def test_golden_open(self, dispatcher):
        response = dispatcher.handle(
            {"cmd": "open", "session": "s1", "grammar": BOOLEANS}
        )
        assert response["opened"] == "s1"
        assert response["rules"] == 4
        assert response["version"] == 4

    def test_open_twice_is_an_error_unless_forced(self, booleans_dispatcher):
        again = {"cmd": "open", "session": "s1", "grammar": BOOLEANS}
        assert "error" in booleans_dispatcher.handle(again)
        assert "error" not in booleans_dispatcher.handle({**again, "force": True})

    def test_golden_parse(self, booleans_dispatcher):
        response = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true or false"}
        )
        assert response["accepted"] is True
        assert response["tree_count"] == 1
        assert response["trees"] == ["START(B(B(true) or B(false)))"]
        assert response["cache"] is False
        assert response["version"] == 4

    def test_rejected_parse(self, booleans_dispatcher):
        response = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "or or"}
        )
        assert response["accepted"] is False
        assert response["tree_count"] == 0

    def test_recognize(self, booleans_dispatcher):
        yes = booleans_dispatcher.handle(
            {"cmd": "recognize", "session": "s1", "tokens": "false"}
        )
        no = booleans_dispatcher.handle(
            {"cmd": "recognize", "session": "s1", "tokens": "or"}
        )
        assert yes["accepted"] and not no["accepted"]
        assert yes["cache"] is False

    def test_open_with_sorts_allows_forward_references(self, dispatcher):
        dispatcher.handle(
            {"cmd": "open", "session": "fwd",
             "grammar": "START ::= CMD\nCMD ::= turn N", "sorts": ["N"]}
        )
        dispatcher.handle({"cmd": "add-rule", "session": "fwd", "rule": "N ::= 1"})
        response = dispatcher.handle(
            {"cmd": "recognize", "session": "fwd", "tokens": "turn 1"}
        )
        assert response["accepted"] is True

    @pytest.mark.parametrize("sorts", ["NUM", [1], {"N": 1}, [["N"]]])
    def test_sorts_must_be_a_list_of_names(self, dispatcher, sorts):
        # A bare string is refused, not iterated into the sorts N, U, M.
        opened = dispatcher.handle(
            {"cmd": "open", "session": "fwd",
             "grammar": "START ::= CMD\nCMD ::= turn NUM", "sorts": sorts}
        )
        assert opened["error"] == "'sorts' must be a list of sort names"
        version = dispatcher.handle(
            {"cmd": "open", "session": "s", "grammar": "START ::= x"}
        )["version"]
        for cmd in ("add-rule", "delete-rule"):
            edited = dispatcher.handle(
                {"cmd": cmd, "session": "s", "rule": "START ::= NUM",
                 "sorts": sorts}
            )
            assert "'sorts' must be a list" in edited["error"], cmd
        info = dispatcher.handle({"cmd": "info", "session": "s"})
        assert (info["version"], info["sorts"]) == (version, [])

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_boolean_flags_must_be_booleans(self, dispatcher, value):
        # "false" is a truthy string: read as a flag, it would force-open
        # over the live session and drop its edits.
        dispatcher.handle({"cmd": "open", "session": "s", "grammar": "START ::= x"})
        dispatcher.handle({"cmd": "add-rule", "session": "s", "rule": "START ::= y"})
        snapshot = dispatcher.handle({"cmd": "snapshot", "session": "s"})["snapshot"]
        requests = [
            ({"cmd": "open", "grammar": "START ::= x"}, "force"),
            ({"cmd": "restore", "snapshot": snapshot}, "force"),
            ({"cmd": "parse", "tokens": "y"}, "checkpoint"),
            ({"cmd": "recognize", "tokens": "y"}, "checkpoint"),
            ({"cmd": "parse", "tokens": "y"}, "trace"),
            ({"cmd": "parse", "tokens": "y"}, "cache"),
        ]
        for request, field in requests:
            response = dispatcher.handle(dict(request, session="s", **{field: value}))
            assert response["error"] == (
                f"'{field}' must be a boolean, got {type(value).__name__}"
            ), (request["cmd"], field)
            assert "trace" not in response and "result" not in response
        info = dispatcher.handle({"cmd": "info", "session": "s"})
        assert info["version"] == 2
        parsed = dispatcher.handle({"cmd": "parse", "session": "s", "tokens": "y"})
        assert parsed["accepted"] is True

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "0", "-5"]
    )
    def test_deadline_must_be_positive_and_finite(self, dispatcher, literal):
        # The serve loop's decoder accepts the NaN and Infinity literals; a
        # NaN or infinite budget would never expire.
        dispatcher.handle({"cmd": "open", "session": "s", "grammar": "START ::= x"})
        request = parse_request(
            '{"cmd": "parse", "session": "s", "tokens": "x", '
            f'"deadline_ms": {literal}}}'
        )
        response = dispatcher.handle(request)
        assert response["error"].startswith(
            "'deadline_ms' must be positive and finite, got "
        ), response
        assert "accepted" not in response

    @pytest.mark.parametrize("grammar", [5, ["START ::= x"], None])
    def test_open_rejects_a_non_string_grammar(self, dispatcher, grammar):
        response = dispatcher.handle(
            {"cmd": "open", "session": "s", "grammar": grammar}
        )
        assert "grammar text as a string" in response["error"]
        assert dispatcher.handle({"cmd": "sessions"})["sessions"] == []


class TestRequestValidation:
    @pytest.mark.parametrize("name", [5, "", None, ["s"]])
    def test_session_must_be_a_non_empty_string(self, dispatcher, name):
        # An int session used to be opened, then broke every sorted
        # session listing with a TypeError.
        opened = dispatcher.handle(
            {"cmd": "open", "session": name, "grammar": "START ::= x"}
        )
        assert opened["error"] == (
            f"'session' must be a non-empty string, got {name!r}"
        )
        dispatcher.handle({"cmd": "open", "session": "s", "grammar": "START ::= x"})
        snapshot = dispatcher.handle({"cmd": "snapshot", "session": "s"})["snapshot"]
        restored = dispatcher.handle(
            {"cmd": "restore", "snapshot": dict(snapshot, session=name)}
        )
        assert restored["error"] == (
            f"the snapshot's 'session' must be a non-empty string, got {name!r}"
        )
        assert dispatcher.handle({"cmd": "sessions"})["sessions"] == ["s"]
        assert dispatcher.handle({"cmd": "info"})["sessions"] == ["s"]
        assert "error" not in dispatcher.handle({"cmd": "metrics-export"})

    @pytest.mark.parametrize("tokens", [{"true": 1}, [["true"]], 5, None])
    def test_tokens_must_be_text_or_token_names(self, booleans_dispatcher, tokens):
        # A JSON object used to be iterated: its keys were parsed.
        for cmd in ("parse", "recognize"):
            response = booleans_dispatcher.handle(
                {"cmd": cmd, "session": "s1", "tokens": tokens}
            )
            assert response["error"] == (
                "'tokens' must be a string or a list of token names"
            ), cmd
        batch = booleans_dispatcher.handle(
            {"cmd": "batch-parse", "session": "s1", "inputs": ["true", tokens]}
        )
        assert batch["error"] == (
            "each 'inputs' entry must be a string or a list of token names"
        )
        base = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true", "checkpoint": True}
        )["result"]
        edited = booleans_dispatcher.handle(
            {"cmd": "edit-parse", "session": "s1", "base": base,
             "edit": {"start": 0, "end": 1, "replacement": tokens}}
        )
        assert edited["error"] == (
            "the edit 'replacement' must be a string or a list of token names"
        )


class TestCaching:
    def test_repeat_parse_hits_cache(self, booleans_dispatcher):
        request = {"cmd": "parse", "session": "s1", "tokens": "true"}
        first = booleans_dispatcher.handle(request)
        second = booleans_dispatcher.handle(request)
        assert first["cache"] is False
        assert second["cache"] is True
        assert second["trees"] == first["trees"]

    def test_add_rule_bumps_version_and_evicts(self, booleans_dispatcher):
        request = {"cmd": "parse", "session": "s1", "tokens": "true"}
        before = booleans_dispatcher.handle(request)
        booleans_dispatcher.handle(request)
        edit = booleans_dispatcher.handle(
            {"cmd": "add-rule", "session": "s1", "rule": "B ::= maybe"}
        )
        assert edit["added"] is True
        assert edit["version"] == before["version"] + 1
        after = booleans_dispatcher.handle(request)
        assert after["cache"] is False
        assert after["version"] == edit["version"]
        # Replacing the session evicts too, even when the new grammar
        # lands on the version number of a cached entry.
        booleans_dispatcher.handle(
            {"cmd": "open", "session": "s1", "force": True,
             "grammar": BOOLEANS.replace("B or B", "B and B")}
        )
        replaced = booleans_dispatcher.handle(request)
        assert replaced["version"] == before["version"]
        assert replaced["cache"] is False

    def test_delete_rule_also_evicts(self, booleans_dispatcher):
        request = {"cmd": "recognize", "session": "s1", "tokens": "true or true"}
        booleans_dispatcher.handle(request)
        assert booleans_dispatcher.handle(request)["cache"] is True
        booleans_dispatcher.handle(
            {"cmd": "delete-rule", "session": "s1", "rule": "B ::= B or B"}
        )
        after = booleans_dispatcher.handle(request)
        assert after["cache"] is False
        assert after["accepted"] is False

    def test_no_op_edit_keeps_cache_warm(self, booleans_dispatcher):
        request = {"cmd": "parse", "session": "s1", "tokens": "true"}
        booleans_dispatcher.handle(request)
        duplicate = booleans_dispatcher.handle(
            {"cmd": "add-rule", "session": "s1", "rule": "B ::= true"}
        )
        assert duplicate["added"] is False
        assert booleans_dispatcher.handle(request)["cache"] is True

    def test_sessions_cache_independently(self, booleans_dispatcher):
        booleans_dispatcher.handle(
            {"cmd": "open", "session": "s2", "grammar": BOOLEANS}
        )
        request1 = {"cmd": "parse", "session": "s1", "tokens": "true"}
        request2 = {"cmd": "parse", "session": "s2", "tokens": "true"}
        booleans_dispatcher.handle(request1)
        booleans_dispatcher.handle(request2)
        # An edit in s2 must not cost s1 its cached result.
        booleans_dispatcher.handle(
            {"cmd": "add-rule", "session": "s2", "rule": "B ::= maybe"}
        )
        assert booleans_dispatcher.handle(request1)["cache"] is True
        assert booleans_dispatcher.handle(request2)["cache"] is False


class TestForestProtocol:
    """Protocol v7: ``max_trees`` bounds and the ``ambiguity`` object."""

    AMBIGUOUS = "true or true or true or true"  # Catalan(3) = 5 parses

    def test_ambiguity_object_counts_the_whole_forest(self, booleans_dispatcher):
        # Protocol v9: no max_trees renders DEFAULT_MAX_TREES trees, but
        # the count covers the whole forest, so a client knows to ask.
        response = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": self.AMBIGUOUS}
        )
        assert response["accepted"] is True
        assert response["ambiguity"] == {
            "tree_count": 5, "enumerated": DEFAULT_MAX_TREES, "truncated": True,
        }
        assert response["tree_count"] == 5
        assert len(response["trees"]) == DEFAULT_MAX_TREES
        everything = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": self.AMBIGUOUS,
             "max_trees": response["tree_count"]}
        )
        assert everything["ambiguity"] == {
            "tree_count": 5, "enumerated": 5, "truncated": False,
        }
        assert set(response["trees"]) < set(everything["trees"])

    def test_max_trees_truncates_enumeration_not_the_count(
        self, booleans_dispatcher
    ):
        response = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": self.AMBIGUOUS,
             "max_trees": 2}
        )
        assert len(response["trees"]) == 2
        assert response["ambiguity"] == {
            "tree_count": 5, "enumerated": 2, "truncated": True,
        }
        # tree_count reports the forest, not the truncated list
        assert response["tree_count"] == 5

    def test_max_trees_participates_in_the_cache_key(
        self, booleans_dispatcher
    ):
        bounded = {"cmd": "parse", "session": "s1", "tokens": self.AMBIGUOUS,
                   "max_trees": 2}
        unbounded = {"cmd": "parse", "session": "s1",
                     "tokens": self.AMBIGUOUS}
        assert booleans_dispatcher.handle(bounded)["cache"] is False
        # A differently-bounded request must not be served the entry.
        response = booleans_dispatcher.handle(unbounded)
        assert response["cache"] is False
        assert len(response["trees"]) == DEFAULT_MAX_TREES
        assert booleans_dispatcher.handle(bounded)["cache"] is True
        # The key holds the resolved bound: naming the default is the
        # same request as leaving it out.
        named = booleans_dispatcher.handle(
            {**unbounded, "max_trees": DEFAULT_MAX_TREES}
        )
        assert named["cache"] is True
        assert named["trees"] == response["trees"]

    def test_default_answer_survives_a_grammar_round_trip(
        self, booleans_dispatcher
    ):
        # The one tree a bounded answer picks must not depend on the
        # order lazy regeneration rebuilt the states in.
        request = {"cmd": "parse", "session": "s1",
                   "tokens": " or ".join(["true", "false"] * 4)}

        def answer():
            response = booleans_dispatcher.handle(request)
            assert response["cache"] is False
            assert response["ambiguity"]["tree_count"] == 429
            for volatile in ("time", "version"):
                del response[volatile]
            return encode(response)

        before = answer()
        for cmd in ("add-rule", "delete-rule"):
            booleans_dispatcher.handle(
                {"cmd": cmd, "session": "s1", "rule": "B ::= maybe"}
            )
        assert answer() == before

    def test_rendering_answers_within_the_deadline(self, booleans_dispatcher):
        # 12 operands pack Catalan(11) = 58,786 trees; rendering 10,000
        # of them takes several times the budget, so the per-tree poll is
        # what answers in time.
        budget_ms = 100
        response = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1",
             "tokens": " or ".join(["true"] * 12),
             "max_trees": ENUMERATION_CAP, "deadline_ms": budget_ms}
        )
        assert response["error"] == "deadline-exceeded", response
        assert response["deadline_ms"] == budget_ms
        assert "tokens_consumed" not in response    # the parse had finished
        assert response["time"] * 1000 < 3 * budget_ms

    def test_counting_answers_deadline_exceeded(
        self, booleans_dispatcher, monkeypatch
    ):
        import time

        from repro.runtime import forest
        from repro.runtime.deadline import Deadline

        # The forest layer sees a deadline that has already passed, the
        # parse before it does not: the count is what must answer.
        expired = Deadline(1)
        time.sleep(0.01)
        monkeypatch.setattr(forest, "active_deadline", lambda: expired)
        response = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1",
             "tokens": " or ".join(["true"] * 8), "deadline_ms": 60_000}
        )
        assert response["error"] == "deadline-exceeded", response
        assert "while counting trees" in response["detail"]
        assert "tokens_consumed" not in response    # the parse had finished

    def test_bad_max_trees_is_a_protocol_error(self, booleans_dispatcher):
        for bad in (0, -3, "two", True, ENUMERATION_CAP + 1, 1_000_000):
            response = booleans_dispatcher.handle(
                {"cmd": "parse", "session": "s1", "tokens": "true",
                 "max_trees": bad}
            )
            assert "error" in response, bad

    def test_batch_parse_carries_ambiguity(self, booleans_dispatcher):
        response = booleans_dispatcher.handle(
            {"cmd": "batch-parse", "session": "s1",
             "inputs": [self.AMBIGUOUS], "max_trees": 1}
        )
        (result,) = response["results"]
        assert result["tree_count"] == 5
        assert result["ambiguity"] == {
            "tree_count": 5, "enumerated": 1, "truncated": True,
        }

    def test_gss_engine_serves_the_forest_protocol(self, booleans_dispatcher):
        response = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": self.AMBIGUOUS,
             "engine": "gss", "max_trees": 3}
        )
        assert response["accepted"] is True
        assert response["engine"] == "gss"
        assert response["ambiguity"]["tree_count"] == 5
        assert len(response["trees"]) == 3


class TestDiagnosticsAndEngines:
    """Protocol v2: structured diagnostics and per-call engine selection."""

    def test_rejected_parse_carries_diagnostics(self, booleans_dispatcher):
        response = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true or"}
        )
        assert response["accepted"] is False
        diagnostics = response["diagnostics"]
        assert diagnostics["line"] == 1
        assert diagnostics["column"] == 8
        assert diagnostics["token_index"] == 2
        assert set(diagnostics["expected"]) == {"true", "false"}

    def test_accepted_parse_has_no_diagnostics(self, booleans_dispatcher):
        response = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true"}
        )
        assert "diagnostics" not in response
        assert response["engine"] == "gss"          # a plain request

    def test_recognize_diagnostics_track_edits(self, booleans_dispatcher):
        request = {"cmd": "recognize", "session": "s1", "tokens": "true or"}
        before = booleans_dispatcher.handle(request)
        assert set(before["diagnostics"]["expected"]) == {"true", "false"}
        booleans_dispatcher.handle(
            {"cmd": "add-rule", "session": "s1", "rule": "B ::= not B"}
        )
        after = booleans_dispatcher.handle(request)
        assert set(after["diagnostics"]["expected"]) == {"true", "false", "not"}

    def test_engine_selection_per_call(self, booleans_dispatcher):
        for engine in ("lazy", "gss", "earley"):
            response = booleans_dispatcher.handle(
                {"cmd": "recognize", "session": "s1", "tokens": "true or false",
                 "engine": engine}
            )
            assert response["accepted"] is True, engine
            assert response["engine"] == engine

    def test_unknown_engine_is_an_error(self, booleans_dispatcher):
        # "dense" was a registered engine once; it is now unknown too.
        for engine in ("warp-drive", "dense"):
            response = booleans_dispatcher.handle(
                {"cmd": "parse", "session": "s1", "tokens": "true",
                 "engine": engine}
            )
            assert "unknown engine" in response["error"], engine

    def test_diagnostics_not_served_across_spellings(self, booleans_dispatcher):
        # Same token names, different source text: the cached rejection's
        # line/column must not leak onto the other spelling.
        multiline = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true\nor or"}
        )
        assert multiline["diagnostics"]["line"] == 2
        one_line = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true or or"}
        )
        assert one_line["cache"] is False
        assert one_line["diagnostics"]["line"] == 1
        assert one_line["diagnostics"]["column"] == 9
        # A token list with the same names is one more spelling.
        as_list = booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": ["true", "or", "or"]}
        )
        assert as_list["cache"] is False

    def test_engine_results_cached_separately(self, booleans_dispatcher):
        # Another engine, a recognition and a checkpointed parse each
        # answer differently from a plain parse of the same tokens.
        default = {"cmd": "parse", "session": "s1", "tokens": "true"}
        booleans_dispatcher.handle(default)
        for variant in ({"engine": "earley"}, {"cmd": "recognize"},
                        {"checkpoint": True}):
            request = {**default, **variant}
            first = booleans_dispatcher.handle(request)
            assert first["cache"] is False, variant  # not the default's entry
            assert booleans_dispatcher.handle(request)["cache"] is True, variant
        assert "result" in first                # the checkpointed parse's id
        assert "result" not in booleans_dispatcher.handle(default)

    @pytest.mark.parametrize(
        "variant",
        [{"cmd": "parse"}, {"cmd": "recognize"},
         {"cmd": "parse", "checkpoint": True},
         {"cmd": "recognize", "checkpoint": True}],
        ids=["parse", "recognize", "checkpoint-parse", "checkpoint-recognize"],
    )
    def test_naming_the_default_engine_shares_the_cache(
        self, booleans_dispatcher, variant
    ):
        # Plain and checkpointed requests both resolve to gss.
        request = {"session": "s1", "tokens": "true or false", **variant}
        named = booleans_dispatcher.handle({**request, "engine": "gss"})
        unnamed = booleans_dispatcher.handle(request)
        assert named["cache"] is False
        assert unnamed["cache"] is True
        assert unnamed["engine"] == "gss"
        for response in (named, unnamed):
            del response["time"], response["cache"]
        assert named == unnamed                 # including any result id

    def test_naming_lazy_on_a_plain_parse_is_its_own_entry(
        self, booleans_dispatcher
    ):
        request = {"cmd": "parse", "session": "s1", "tokens": "true or false"}
        plain = booleans_dispatcher.handle(request)
        lazy = booleans_dispatcher.handle({**request, "engine": "lazy"})
        assert plain["engine"] == "gss"
        assert lazy["engine"] == "lazy"
        assert lazy["cache"] is False           # never gss's entry
        assert lazy["trees"] == plain["trees"]

    @pytest.mark.parametrize("cmd", ["parse", "recognize", "edit-parse"])
    def test_compiled_is_an_unknown_engine(self, booleans_dispatcher, cmd):
        response = booleans_dispatcher.handle(
            {"cmd": cmd, "session": "s1", "tokens": "true", "base": "x",
             "edit": {"start": 0, "end": 0}, "engine": "compiled"}
        )
        assert response["error"] == (
            "unknown engine 'compiled' — known: lazy, gss, earley"
        )

    def test_batch_parse_with_engine_and_diagnostics(self, booleans_dispatcher):
        response = booleans_dispatcher.handle(
            {"cmd": "batch-parse", "session": "s1",
             "inputs": ["true", "or"], "engine": "lazy"}
        )
        good, bad = response["results"]
        assert good["accepted"] and not bad["accepted"]
        assert set(bad["diagnostics"]["expected"]) == {"true", "false"}


class TestBatchParse:
    def test_batch_reports_per_input_and_aggregate(self, booleans_dispatcher):
        response = booleans_dispatcher.handle(
            {"cmd": "batch-parse", "session": "s1",
             "inputs": ["true", "false", "true", "or"]}
        )
        accepted = [r["accepted"] for r in response["results"]]
        assert accepted == [True, True, True, False]
        assert response["cache_hits"] == 1          # the repeated "true"
        assert response["cache"] is False
        assert "time" in response

    def test_batch_needs_a_list(self, booleans_dispatcher):
        response = booleans_dispatcher.handle(
            {"cmd": "batch-parse", "session": "s1", "inputs": "true"}
        )
        assert "error" in response


class TestIntrospection:
    def test_metrics_global(self, booleans_dispatcher):
        booleans_dispatcher.handle({"cmd": "parse", "session": "s1", "tokens": "true"})
        response = booleans_dispatcher.handle({"cmd": "metrics"})
        assert response["sessions"] == 1
        assert response["cache"]["misses"] >= 1
        assert response["requests"]["parse"]["count"] == 1

    def test_metrics_per_session(self, booleans_dispatcher):
        response = booleans_dispatcher.handle({"cmd": "metrics", "session": "s1"})
        assert response["rules"] == 4
        assert "states" in response["summary"]

    def test_info(self, booleans_dispatcher):
        server = booleans_dispatcher.handle({"cmd": "info"})
        assert server["protocol"] == 10
        assert "parse" in server["commands"]
        assert "corpus-query" in server["commands"]
        assert "metrics-export" in server["commands"]
        assert list(server["engines"]) == ["lazy", "gss", "earley"]
        assert server["sessions"] == ["s1"]
        session = booleans_dispatcher.handle({"cmd": "info", "session": "s1"})
        assert "B ::= true" in session["grammar"]

    def test_close(self, booleans_dispatcher):
        assert booleans_dispatcher.handle(
            {"cmd": "close", "session": "s1"}
        )["closed"] is True
        assert "error" in booleans_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true"}
        )


class TestRequestDecoding:
    def test_single_object(self):
        assert parse_request('{"cmd":"info"}') == {"cmd": "info"}

    def test_blank_and_comment_lines(self):
        assert parse_request("") is None
        assert parse_request("   ") is None
        assert parse_request("# a comment") is None

    def test_concatenated_objects(self):
        requests = list(iter_requests('{"cmd":"a"} {"cmd":"b"}'))
        assert [r["cmd"] for r in requests] == ["a", "b"]

    def test_literal_backslash_n_separator(self):
        # What `echo '...\n...'` produces under escape-unaware shells.
        text = '{"cmd":"a"}\\n{"cmd":"b"}'
        assert [r["cmd"] for r in iter_requests(text)] == ["a", "b"]

    def test_bad_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            list(iter_requests("{nope"))
        with pytest.raises(ProtocolError):
            list(iter_requests("[1, 2]"))


class TestWorkspaceAdoption:
    def test_re_adopting_the_same_session_keeps_subscriptions(self):
        from repro.service import session_from_dict, session_to_dict
        from repro.service.workspace import ParseSession, Workspace

        ws = Workspace()
        session = session_from_dict(
            session_to_dict(ParseSession("s", "START ::= B\nB ::= x"))
        )
        ws.adopt(session)
        ws.adopt(session, force=True)      # idempotent, must not detach
        payload, cached = ws.parse("s", "x")
        assert not cached and ws.parse("s", "x") == (payload, True)
        session.add_rule("B ::= y")
        assert len(ws.cache) == 0          # MODIFY still evicts its results
        assert session.recognize_payload("y")["accepted"] is True


def test_deep_right_recursive_list_answers_with_a_tree(dispatcher):
    """400 tokens of ``L ::= x L`` nest 400 levels deep, past what a
    recursive renderer survives."""
    opened = dispatcher.handle({
        "cmd": "open",
        "session": "deep",
        "grammar": "START ::= L\nL ::= x\nL ::= x L",
    })
    assert "error" not in opened
    response = dispatcher.handle({
        "cmd": "parse",
        "session": "deep",
        "tokens": " ".join(["x"] * 400),
        "max_trees": 1,
    })
    assert "error" not in response
    assert response["accepted"] is True
    assert response["trees"] == ["START(" + "L(x " * 399 + "L(x)" + ")" * 400]
