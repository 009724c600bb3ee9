"""The corpus front door: commands, persistence across restarts, metrics."""

import pytest

from repro import obs
from repro.service.dispatcher import Dispatcher

GRAMMAR = "START ::= B\nB ::= true\nB ::= false\nB ::= B or B"

CREATE = {"cmd": "corpus-create", "corpus": "demo", "grammar": GRAMMAR}


@pytest.fixture
def dispatcher(tmp_path):
    served = Dispatcher(corpus_root=str(tmp_path / "corpora"))
    yield served
    served.close()


def ingest(dispatcher, documents):
    return dispatcher.handle(
        {"cmd": "corpus-ingest", "corpus": "demo", "documents": documents}
    )


class TestCommands:
    def test_create_is_idempotent_and_conflicts_are_errors(self, dispatcher):
        assert dispatcher.handle(CREATE)["created"] is True
        assert dispatcher.handle(CREATE)["created"] is False
        conflict = dispatcher.handle(
            {"cmd": "corpus-create", "corpus": "demo", "grammar": "START ::= x"}
        )
        assert "immutable" in conflict["error"]

    def test_create_validates_engine_and_grammar(self, dispatcher):
        assert "unknown engine" in dispatcher.handle(
            {**CREATE, "engine": "warp-drive"}
        )["error"]
        assert "non-empty" in dispatcher.handle(
            {"cmd": "corpus-create", "corpus": "demo", "grammar": "  "}
        )["error"]

    def test_stored_compiled_engine_fails_the_parse_job(self, tmp_path):
        # A registry written when ``compiled`` was an engine still loads;
        # its parse job fails on the registry's "unknown engine" error.
        from repro.corpus.registry import CorpusRegistry

        root = str(tmp_path / "corpora")
        CorpusRegistry(root).create("demo", GRAMMAR, engine="compiled")
        served = Dispatcher(corpus_root=root)
        try:
            ingest(served, ["true or false"])
            job = served.handle(
                {"cmd": "corpus-parse", "corpus": "demo", "wait": True}
            )["job"]
        finally:
            served.close()
        assert job["state"] == "failed"
        assert "unknown engine 'compiled'" in job["job_error"]
        assert job["done"] == 0

    def test_commands_refuse_unknown_corpus(self, dispatcher):
        for cmd in ("corpus-ingest", "corpus-parse", "corpus-status",
                    "corpus-query"):
            response = dispatcher.handle(
                {"cmd": cmd, "corpus": "ghost", "kind": "errors",
                 "documents": ["x"]}
            )
            assert "unknown corpus 'ghost'" in response["error"]

    def test_commands_without_root_are_refused(self):
        bare = Dispatcher()  # no corpus_root
        response = bare.handle({"cmd": "corpus-info"})
        assert "--corpus-root" in response["error"]

    def test_ingest_parse_status_query_info(self, dispatcher):
        dispatcher.handle(CREATE)
        outcome = ingest(
            dispatcher,
            [
                {"name": "good-1", "text": "true or false"},
                {"name": "good-2", "text": "false"},
                {"name": "bad-1", "text": "true or or"},
                {"name": "dup", "text": "true or false"},
            ],
        )
        assert outcome["added"] == 3
        assert outcome["duplicates"] == 1
        assert outcome["documents"] == 3

        parsed = dispatcher.handle(
            {"cmd": "corpus-parse", "corpus": "demo", "wait": True}
        )
        job = parsed["job"]
        assert job["state"] == "done"
        assert job["done"] == 3
        assert job["accepted"] == 2
        assert job["rejected"] == 1

        status = dispatcher.handle({"cmd": "corpus-status", "corpus": "demo"})
        assert status["parsed"] == 3
        assert status["pending"] == 0
        assert status["journal"] == {
            "entries": 3, "duplicates": 0, "torn_tail": False,
        }

        match = dispatcher.handle(
            {"cmd": "corpus-query", "corpus": "demo", "kind": "match",
             "nonterminal": "B"}
        )
        assert match["total"] == 2
        assert {hit["name"] for hit in match["hits"]} == {"good-1", "good-2"}

        errors = dispatcher.handle(
            {"cmd": "corpus-query", "corpus": "demo", "kind": "errors"}
        )
        assert errors["rejected"] == 1
        assert errors["hits"][0]["docs"][0]["name"] == "bad-1"

        info = dispatcher.handle({"cmd": "corpus-info"})
        assert info["corpora"] == ["demo"]
        detail = dispatcher.handle({"cmd": "corpus-info", "corpus": "demo"})
        assert detail["grammar"] == GRAMMAR
        assert detail["documents"] == 3
        assert detail["parsed"] == 3

    def test_ingest_from_files_and_manifest(self, dispatcher, tmp_path):
        dispatcher.handle(CREATE)
        single = tmp_path / "single.txt"
        single.write_text("true")
        tree = tmp_path / "tree" / "nested"
        tree.mkdir(parents=True)
        (tree / "a.txt").write_text("false")
        (tree.parent / "b.txt").write_text("true or true")
        outcome = dispatcher.handle(
            {
                "cmd": "corpus-ingest",
                "corpus": "demo",
                "files": [str(single)],
                "manifest": str(tree.parent),
            }
        )
        assert outcome["added"] == 3
        match_names = dispatcher.handle(
            {"cmd": "corpus-status", "corpus": "demo"}
        )
        assert match_names["documents"] == 3

    def test_ingest_with_nothing_is_an_error(self, dispatcher):
        dispatcher.handle(CREATE)
        response = dispatcher.handle(
            {"cmd": "corpus-ingest", "corpus": "demo"}
        )
        assert "nothing to ingest" in response["error"]

    def test_query_cache_and_bypass(self, dispatcher):
        dispatcher.handle(CREATE)
        ingest(dispatcher, ["true"])
        dispatcher.handle({"cmd": "corpus-parse", "corpus": "demo", "wait": True})
        request = {"cmd": "corpus-query", "corpus": "demo", "kind": "errors"}
        assert dispatcher.handle(dict(request))["cache"] is False
        assert dispatcher.handle(dict(request))["cache"] is True
        assert dispatcher.handle(dict(request, cache=False))["cache"] is False

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_flags_must_be_booleans(self, dispatcher, value):
        dispatcher.handle(CREATE)
        ingest(dispatcher, ["true"])
        parse = {"cmd": "corpus-parse", "corpus": "demo", "wait": value}
        query = {"cmd": "corpus-query", "corpus": "demo", "kind": "errors"}
        for request, field in (
            (parse, "wait"),
            (dict(query, cache=value), "cache"),
            (dict(query, trace=value), "trace"),
        ):
            response = dispatcher.handle(request)
            assert response["error"] == (
                f"'{field}' must be a boolean, got {type(value).__name__}"
            ), field
        status = dispatcher.handle({"cmd": "corpus-status", "corpus": "demo"})
        assert "job" not in status  # the refused parse started no job

    def test_parse_validates_window(self, dispatcher):
        dispatcher.handle(CREATE)
        ingest(dispatcher, ["true"])
        response = dispatcher.handle(
            {"cmd": "corpus-parse", "corpus": "demo", "window": 0}
        )
        assert "'window'" in response["error"]


class TestPersistenceAcrossRestarts:
    def test_reopened_root_resumes_without_reparsing(self, tmp_path):
        root = str(tmp_path / "corpora")
        first = Dispatcher(corpus_root=root)
        first.handle(CREATE)
        texts = [
            "true", "false", "true or false", "false or true",
            "true or true", "false or false",
            "true or false or true", "false or true or false",
        ]
        first.handle(
            {"cmd": "corpus-ingest", "corpus": "demo", "documents": texts}
        )
        first.handle({"cmd": "corpus-parse", "corpus": "demo", "wait": True})
        baseline = first.handle(
            {"cmd": "corpus-query", "corpus": "demo", "kind": "match",
             "nonterminal": "B", "cache": False}
        )
        first.close()

        # A fresh process over the same root: definition, documents and
        # results are all there; a re-issued parse has zero work left.
        second = Dispatcher(corpus_root=root)
        try:
            assert second.handle({"cmd": "corpus-info"})["corpora"] == ["demo"]
            parsed = second.handle(
                {"cmd": "corpus-parse", "corpus": "demo", "wait": True}
            )
            assert parsed["job"]["resumed"] == 8
            assert parsed["job"]["parsed_this_run"] == 0
            again = second.handle(
                {"cmd": "corpus-query", "corpus": "demo", "kind": "match",
                 "nonterminal": "B", "cache": False}
            )
            for key in ("total", "occurrences", "hits", "generation"):
                assert again[key] == baseline[key]
        finally:
            second.close()

    def test_new_documents_after_restart_parse_incrementally(self, tmp_path):
        root = str(tmp_path / "corpora")
        first = Dispatcher(corpus_root=root)
        first.handle(CREATE)
        first.handle(
            {"cmd": "corpus-ingest", "corpus": "demo", "documents": ["true"]}
        )
        first.handle({"cmd": "corpus-parse", "corpus": "demo", "wait": True})
        first.close()
        second = Dispatcher(corpus_root=root)
        try:
            second.handle(
                {"cmd": "corpus-ingest", "corpus": "demo",
                 "documents": ["false", "true or false"]}
            )
            parsed = second.handle(
                {"cmd": "corpus-parse", "corpus": "demo", "wait": True}
            )
            assert parsed["job"]["resumed"] == 1
            assert parsed["job"]["parsed_this_run"] == 2
            status = second.handle({"cmd": "corpus-status", "corpus": "demo"})
            assert status["journal"]["duplicates"] == 0
        finally:
            second.close()


class TestMetrics:
    def test_corpus_metrics_reach_the_registry(self, dispatcher):
        dispatcher.handle(CREATE)
        ingest(dispatcher, ["true", "true or or"])
        dispatcher.handle({"cmd": "corpus-parse", "corpus": "demo", "wait": True})
        dispatcher.handle(
            {"cmd": "corpus-query", "corpus": "demo", "kind": "errors"}
        )
        names = {
            sample["name"] for sample in obs.REGISTRY.snapshot().values()
        }
        for wanted in (
            "repro.corpus.docs_ingested",
            "repro.corpus.docs_parsed",
            "repro.corpus.documents",
            "repro.corpus.results",
            "repro.corpus.parsed",
            "repro.corpus.corpora",
            "repro.corpus.queries",
            "repro.corpus.query_cache.misses",
            "repro.corpus.ingest.seconds",
            "repro.corpus.query.seconds",
            "repro.corpus.doc_parse.seconds",
        ):
            assert wanted in names, f"missing metric {wanted}"

    def test_cache_eviction_counters_are_exported(self):
        """PR 8 satellite: both eviction counters appear in the registry.

        ``repro.result_cache.evictions`` comes from the workspace's LRU;
        ``repro.checkpoints.evictions`` from per-session checkpoint
        retention (capacity 16) — both surfaced via the workspace
        collector so capacity pressure is observable."""
        from repro.service.workspace import CHECKPOINT_CAPACITY, Workspace

        workspace = Workspace(cache_capacity=2)
        dispatcher = Dispatcher(workspace=workspace)
        dispatcher.handle(
            {"cmd": "open", "session": "s", "grammar": GRAMMAR}
        )
        # Three distinct parses through a capacity-2 LRU: one eviction.
        for tokens in ("true", "false", "true or false"):
            dispatcher.handle(
                {"cmd": "parse", "session": "s", "tokens": tokens}
            )
        # One checkpoint beyond retention capacity: one checkpoint falls.
        for index in range(CHECKPOINT_CAPACITY + 1):
            dispatcher.handle(
                {
                    "cmd": "parse",
                    "session": "s",
                    "tokens": f"true /*{index}*/",
                    "checkpoint": True,
                    "cache": False,
                }
            )
        samples = obs.REGISTRY.snapshot()
        assert samples["repro.result_cache.evictions"]["value"] >= 1
        assert samples["repro.checkpoints.evictions"]["value"] >= 1
        assert samples["repro.checkpoints.entries"]["value"] >= 1

    def test_checkpoint_eviction_counter_survives_session_close(self):
        """The counter must stay monotone when its session goes away."""
        from repro.service.workspace import CHECKPOINT_CAPACITY, Workspace

        workspace = Workspace()
        dispatcher = Dispatcher(workspace=workspace)
        dispatcher.handle({"cmd": "open", "session": "s", "grammar": GRAMMAR})
        for index in range(CHECKPOINT_CAPACITY + 2):
            dispatcher.handle(
                {
                    "cmd": "parse",
                    "session": "s",
                    "tokens": f"true /*{index}*/",
                    "checkpoint": True,
                }
            )

        def eviction_count():
            return obs.REGISTRY.snapshot()["repro.checkpoints.evictions"][
                "value"
            ]

        before = eviction_count()
        assert before >= 2
        dispatcher.handle({"cmd": "close", "session": "s"})
        assert eviction_count() >= before
