"""The metrics registry: instruments, collectors, snapshots, merging.

Every test uses a fresh private :class:`MetricsRegistry` — the process
global ``obs.REGISTRY`` holds module-cached instruments (language,
dispatcher) and must never be reset.
"""

from __future__ import annotations

import gc

import pytest

from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry, sample_key


class TestSampleKey:
    def test_bare_name(self):
        assert sample_key("repro.parse.requests") == "repro.parse.requests"

    def test_labels_are_sorted(self):
        key = sample_key("m", {"b": "2", "a": "1"})
        assert key == 'm{a="1",b="2"}'


class TestInstruments:
    def test_counter_increments_and_samples(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.snapshot()["hits"] == {
            "type": "counter",
            "value": 5,
            "name": "hits",
            "labels": {},
        }

    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c", shard="0") is registry.counter("c", shard="0")
        assert registry.counter("c", shard="0") is not registry.counter("c", shard="1")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3.0)
        gauge.add(-1.0)
        assert gauge.value == 2.0
        assert registry.snapshot()["depth"]["type"] == "gauge"

    def test_histogram_buckets_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 99.0):
            histogram.observe(value)
        entry = registry.snapshot()["lat"]
        assert entry["type"] == "histogram"
        # non-cumulative per-bucket counts, overflow separate
        assert entry["buckets"] == [[0.01, 1], [0.1, 2], [1.0, 1]]
        assert entry["inf"] == 1
        assert entry["count"] == 5
        assert entry["sum"] == pytest.approx(99.605)

    def test_histogram_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_labels_reach_the_snapshot_key(self):
        registry = MetricsRegistry()
        registry.counter("reqs", cmd="parse").inc()
        assert 'reqs{cmd="parse"}' in registry.snapshot()


class TestCollectors:
    def test_plain_collector_polled_at_snapshot(self):
        registry = MetricsRegistry()
        state = {"n": 1}
        registry.register_collector(
            lambda: [("ext.count", None, "counter", state["n"])]
        )
        assert registry.snapshot()["ext.count"]["value"] == 1
        state["n"] = 7  # collectors see live state, not registration-time state
        assert registry.snapshot()["ext.count"]["value"] == 7

    def test_two_owners_feeding_one_series_are_summed(self):
        registry = MetricsRegistry()
        for amount in (2, 3):
            registry.register_collector(
                lambda amount=amount: [("ext.count", None, "counter", amount)]
            )
        assert registry.snapshot()["ext.count"]["value"] == 5

    def test_object_collector_dies_with_its_owner(self):
        registry = MetricsRegistry()

        class Owner:
            size = 11

        owner = Owner()
        registry.register_object_collector(
            owner, lambda o: [("owner.size", None, "gauge", o.size)]
        )
        assert registry.snapshot()["owner.size"]["value"] == 11
        del owner
        gc.collect()
        assert "owner.size" not in registry.snapshot()

        # Without any snapshot() in between, registering many short-lived
        # owners must not grow the entry list without bound, and must not
        # drop the live ones.
        survivors = [Owner() for _ in range(10)]
        for survivor in survivors:
            registry.register_object_collector(
                survivor, lambda o: [("owner.size", None, "gauge", o.size)]
            )
        for _ in range(5000):
            registry.register_object_collector(
                Owner(), lambda o: [("owner.size", None, "gauge", o.size)]
            )
        gc.collect()
        assert len(registry._object_collectors) <= len(survivors) + 1
        assert registry.snapshot()["owner.size"]["value"] == 11 * len(survivors)

    def test_collected_sample_merges_into_instrument_series(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(2)
        registry.register_collector(lambda: [("hits", None, "counter", 3)])
        assert registry.snapshot()["hits"]["value"] == 5


class TestMerge:
    def test_counters_and_gauges_sum(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(1.5)
        b = MetricsRegistry()
        b.counter("c").inc(3)
        b.gauge("g").set(0.5)
        merged = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
        assert merged["c"]["value"] == 5
        assert merged["g"]["value"] == 2.0

    def test_histograms_merge_bucket_wise(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(0.1, 1.0)).observe(0.05)
        b = MetricsRegistry()
        hist = b.histogram("h", buckets=(0.1, 1.0))
        hist.observe(0.5)
        hist.observe(50.0)
        merged = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
        entry = merged["h"]
        assert entry["buckets"] == [[0.1, 1], [1.0, 1]]
        assert entry["inf"] == 1
        assert entry["count"] == 3
        assert entry["sum"] == pytest.approx(50.55)

    def test_merge_does_not_mutate_inputs(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(0.1,)).observe(0.05)
        snap_a = a.snapshot()
        before = [list(pair) for pair in snap_a["h"]["buckets"]]
        MetricsRegistry.merge([snap_a, snap_a])
        assert snap_a["h"]["buckets"] == before

    def test_disjoint_series_pass_through(self):
        a = MetricsRegistry()
        a.counter("only.a").inc()
        b = MetricsRegistry()
        b.counter("only.b").inc(2)
        merged = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
        assert merged["only.a"]["value"] == 1
        assert merged["only.b"]["value"] == 2

    def test_non_dict_snapshots_are_skipped(self):
        a = MetricsRegistry()
        a.counter("c").inc()
        merged = MetricsRegistry.merge([a.snapshot(), None, "bogus"])
        assert merged["c"]["value"] == 1
