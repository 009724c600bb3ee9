"""The metrics-export command and per-request tracing, end to end.

These tests exercise the *global* obs registry through the service — they
assert presence and deltas, never absolute totals, and never reset the
registry (module-cached instruments in the library would go stale).
"""

from __future__ import annotations

import pytest

from repro.service import Dispatcher, Scheduler

BOOLEANS = "START ::= B\nB ::= true\nB ::= false\nB ::= B or B\nB ::= B and B"


def _counter_value(metrics, key):
    entry = metrics.get(key)
    return entry["value"] if entry else 0


@pytest.fixture()
def worked_dispatcher():
    """A dispatcher that has done a bit of everything observable."""
    dispatcher = Dispatcher()
    assert "error" not in dispatcher.handle(
        {"cmd": "open", "session": "s1", "grammar": BOOLEANS}
    )
    for _ in range(2):  # second run is a result-cache hit
        assert dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true or false"}
        )["accepted"]
    checkpointed = dispatcher.handle(
        {"cmd": "parse", "session": "s1", "tokens": "true and false",
         "checkpoint": True}
    )
    assert checkpointed["accepted"]
    edited = dispatcher.handle(
        {"cmd": "edit-parse", "session": "s1", "base": checkpointed["result"],
         "edit": {"start": 2, "end": 3, "replacement": "true"}}
    )
    assert edited["accepted"]
    return dispatcher


class TestMetricsExport:
    def test_prometheus_is_the_default_format(self, worked_dispatcher):
        response = worked_dispatcher.handle({"cmd": "metrics-export"})
        assert response["format"] == "prometheus"
        text = response["text"]
        assert "# TYPE repro_lazy_table_fraction gauge" in text
        assert "repro_parse_accepted" in text
        assert 'repro_service_requests{cmd="parse"}' in text

    def test_json_export_covers_the_metric_catalog(self, worked_dispatcher):
        response = worked_dispatcher.handle(
            {"cmd": "metrics-export", "format": "json"}
        )
        metrics = response["metrics"]
        # the acceptance-list series: lazy generation, compiled action
        # cache, result cache, incremental reuse, engine work, latency
        for key in (
            "repro.lazy.states_materialized",
            "repro.lazy.full_table_states",
            "repro.lazy.table_fraction",
            "repro.generator.expansions",
            "repro.compiled.action_cache.hits",
            "repro.compiled.action_cache.misses",
            "repro.result_cache.hits",
            "repro.result_cache.misses",
            'repro.incremental.reparse{outcome="resumed",reason="none"}',
            "repro.parse.seconds",
            'repro.service.requests{cmd="parse"}',
        ):
            assert key in metrics, f"missing {key}"
        fraction = metrics["repro.lazy.table_fraction"]["value"]
        assert 0.0 < fraction <= 1.0
        assert metrics["repro.parse.seconds"]["type"] == "histogram"
        assert metrics["repro.parse.seconds"]["count"] > 0

    def test_result_cache_hit_is_counted(self, worked_dispatcher):
        metrics = worked_dispatcher.handle(
            {"cmd": "metrics-export", "format": "json"}
        )["metrics"]
        assert _counter_value(metrics, "repro.result_cache.hits") >= 1

    def test_unknown_format_is_a_protocol_error(self, worked_dispatcher):
        response = worked_dispatcher.handle(
            {"cmd": "metrics-export", "format": "xml"}
        )
        assert "xml" in response["error"]

    def test_spans_field_returns_recent_trees(self, worked_dispatcher):
        worked_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true", "trace": True}
        )
        response = worked_dispatcher.handle(
            {"cmd": "metrics-export", "format": "json", "spans": 5}
        )
        spans = response["spans"]
        assert isinstance(spans, list) and spans
        assert any(tree["name"] == "request" for tree in spans)

    def test_boolean_spans_field_is_ignored(self, worked_dispatcher):
        response = worked_dispatcher.handle(
            {"cmd": "metrics-export", "format": "json", "spans": True}
        )
        assert "spans" not in response

    def test_counters_grow_with_work(self, worked_dispatcher):
        key = 'repro.service.requests{cmd="parse"}'
        before = _counter_value(
            worked_dispatcher.handle(
                {"cmd": "metrics-export", "format": "json"}
            )["metrics"],
            key,
        )
        worked_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "false"}
        )
        after = _counter_value(
            worked_dispatcher.handle(
                {"cmd": "metrics-export", "format": "json"}
            )["metrics"],
            key,
        )
        assert after == before + 1


class TestRequestTracing:
    def test_trace_true_returns_the_span_tree(self, worked_dispatcher):
        response = worked_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "false or true",
             "trace": True}
        )
        tree = response["trace"]
        assert tree["name"] == "request"
        assert tree["attributes"]["cmd"] == "parse"
        assert tree["duration"] > 0.0

    def test_child_durations_sum_within_the_korp_time(self, worked_dispatcher):
        response = worked_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true or true or false",
             "trace": True}
        )
        tree = response["trace"]
        children_sum = sum(c["duration"] for c in tree.get("children", ()))
        # rounding in to_dict() can move each duration by <=1us
        slack = 1e-5
        assert children_sum <= tree["duration"] + slack
        assert tree["duration"] <= response["time"] + slack

    def test_rendering_has_a_span_and_counters(self, worked_dispatcher):
        def rendered():
            metrics = worked_dispatcher.handle(
                {"cmd": "metrics-export", "format": "json"}
            )["metrics"]
            return (_counter_value(metrics, "repro.render.trees"),
                    _counter_value(metrics, "repro.render.chars"))

        trees_before, chars_before = rendered()
        response = worked_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true or true or true",
             "trace": True, "max_trees": 2}
        )
        (render,) = [c for c in response["trace"]["children"]
                     if c["name"] == "render"]
        chars = sum(map(len, response["trees"]))
        assert render["attributes"] == {"trees": 2, "chars": chars}
        assert rendered() == (trees_before + 2, chars_before + chars)

    @pytest.mark.parametrize("cmd, op, rule", [
        ("add-rule", "add", "B ::= maybe"),
        ("delete-rule", "delete", "B ::= B and B"),
    ])
    def test_grammar_edits_have_a_modify_span_and_counter(
        self, worked_dispatcher, cmd, op, rule
    ):
        key = f'repro.generator.modify{{op="{op}"}}'

        def modifies():
            return _counter_value(
                worked_dispatcher.handle(
                    {"cmd": "metrics-export", "format": "json"}
                )["metrics"],
                key,
            )

        before = modifies()
        response = worked_dispatcher.handle(
            {"cmd": cmd, "session": "s1", "rule": rule, "trace": True}
        )
        assert "error" not in response
        (modify,) = [c for c in response["trace"]["children"]
                     if c["name"] == "modify"]
        assert modify["attributes"]["op"] == op
        assert modifies() == before + 1

    def test_untraced_requests_carry_no_tree(self, worked_dispatcher):
        response = worked_dispatcher.handle(
            {"cmd": "parse", "session": "s1", "tokens": "true"}
        )
        assert "trace" not in response

    def test_error_responses_are_traced_too(self, worked_dispatcher):
        response = worked_dispatcher.handle(
            {"cmd": "parse", "session": "ghost", "tokens": "x", "trace": True}
        )
        assert "error" in response
        assert response["trace"]["name"] == "request"


class TestSchedulerExport:
    def test_thread_mode_export_includes_shard_series(self):
        with Scheduler(mode="thread") as scheduler:
            scheduler.handle(
                {"cmd": "open", "session": "s1", "grammar": BOOLEANS}
            )
            scheduler.handle(
                {"cmd": "parse", "session": "s1", "tokens": "true"}
            )
            metrics = scheduler.handle(
                {"cmd": "metrics-export", "format": "json"}
            )["metrics"]
        shard_keys = [key for key in metrics if key.startswith("repro.shard.")]
        assert any("submitted" in key for key in shard_keys)
        assert any("repro.shard.request.seconds" in key for key in shard_keys)
        assert 'repro.shard.request.seconds{shard="0"}' in metrics

    def test_traced_response_names_its_shard(self):
        with Scheduler(workers=2, mode="process") as scheduler:
            scheduler.handle(
                {"cmd": "open", "session": "s1", "grammar": BOOLEANS}
            )
            response = scheduler.handle(
                {"cmd": "parse", "session": "s1", "tokens": "true",
                 "trace": True}
            )
        attributes = response["trace"]["attributes"]
        assert attributes["shard"] == scheduler.shard_of("s1")
        assert attributes["queue_wait"] >= 0.0

    def test_process_mode_merges_child_registries(self):
        with Scheduler(workers=2, mode="process") as scheduler:
            for index in range(3):
                name = f"s{index}"
                scheduler.handle(
                    {"cmd": "open", "session": name, "grammar": BOOLEANS}
                )
                scheduler.handle(
                    {"cmd": "parse", "session": name, "tokens": "true or false"}
                )
            response = scheduler.handle(
                {"cmd": "metrics-export", "format": "json"}
            )
        merged = response["metrics"]
        # "shards" holds the per-child snapshot dicts; "parent" the
        # scheduler process's own registry snapshot
        parts = list(response["shards"]) + [response["parent"]]
        # every merged counter equals the sum over child + parent parts
        for key, entry in merged.items():
            if entry.get("type") != "counter":
                continue
            total = sum(_counter_value(part, key) for part in parts)
            assert entry["value"] == total, key
        key = 'repro.service.requests{cmd="parse"}'
        assert _counter_value(merged, key) >= 3
        fraction = merged["repro.lazy.table_fraction"]["value"]
        assert 0.0 < fraction <= 1.0

    def test_process_mode_prometheus_renders_in_the_parent(self):
        with Scheduler(workers=2, mode="process") as scheduler:
            scheduler.handle(
                {"cmd": "open", "session": "s1", "grammar": BOOLEANS}
            )
            response = scheduler.handle({"cmd": "metrics-export"})
        assert response["format"] == "prometheus"
        assert "repro_service_requests" in response["text"]
        assert "metrics" not in response
        assert "shards" not in response
