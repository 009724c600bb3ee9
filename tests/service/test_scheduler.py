"""The sharded scheduler: routing, batching, backpressure, drain."""

import threading

import pytest

from repro.service import Dispatcher, Scheduler, merge_global

GRAMMAR = "START ::= B\nB ::= true\nB ::= false\nB ::= B or B"


def open_request(name):
    return {"cmd": "open", "session": name, "grammar": GRAMMAR}


def parse_request(name, tokens="true or false"):
    return {"cmd": "parse", "session": name, "tokens": tokens}


class RecordingStub:
    """A dispatcher stand-in whose handle() can be paused by a test.

    With an ``inner`` dispatcher it answers through it; without, every
    request gets a canned ``ok`` answer.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.calls = []
        self.release = threading.Event()
        self.started = threading.Event()
        self.block_next = False

    def handle(self, request):
        self.calls.append(request)
        if self.block_next:
            self.block_next = False
            self.started.set()
            assert self.release.wait(timeout=30)
        if self.inner is not None:
            return self.inner.handle(request)
        return {"ok": True, "cmd": request.get("cmd"), "time": 0.0}


class FakeChild:
    """A ProcessExecutor stand-in that spawns nothing (never run)."""

    @classmethod
    async def spawn(cls, **_kwargs):
        return cls()

    async def close(self):
        pass

    def terminate(self):
        pass


def forbid_executors(monkeypatch):
    """Make building either shard executor fail the test."""
    from repro.service import scheduler as scheduler_module

    def forbidden(*_args, **_kwargs):
        raise AssertionError("built an executor before validating arguments")

    class ForbiddenChild:
        spawn = staticmethod(forbidden)

    monkeypatch.setattr(scheduler_module, "ProcessExecutor", ForbiddenChild)
    monkeypatch.setattr(scheduler_module, "InlineExecutor", forbidden)


class TestRouting:
    """Routing across several shards: process mode, one child each."""

    def test_shard_assignment_is_stable_and_in_range(self):
        with Scheduler(workers=3) as scheduler:
            for name in ("alpha", "beta", "gamma", "s000", "s001"):
                shard = scheduler.shard_of(name)
                assert 0 <= shard < 3
                assert scheduler.shard_of(name) == shard

    def test_session_requests_land_on_one_shard(self):
        with Scheduler(workers=4) as scheduler:
            scheduler.handle(open_request("pinned"))
            for _ in range(5):
                assert scheduler.handle(parse_request("pinned"))["accepted"]
            owner = scheduler.shards[scheduler.shard_of("pinned")]
            assert owner.completed == 6
            others = [
                shard.completed
                for shard in scheduler.shards
                if shard is not owner
            ]
            assert sum(others) == 0

    def test_restore_routes_by_snapshot_payload_name(self):
        with Scheduler(workers=4) as scheduler:
            scheduler.handle(open_request("donor"))
            snapshot = scheduler.handle(
                {"cmd": "snapshot", "session": "donor"}
            )["snapshot"]
            response = scheduler.handle({"cmd": "restore", "snapshot": snapshot, "force": True})
            assert response["restored"] == "donor"
            owner = scheduler.shards[scheduler.shard_of("donor")]
            assert owner.completed == 3

    def test_non_string_session_is_refused_before_routing(self):
        # An int session used to reach a shard and be opened; every
        # broadcast merging that shard's session list then failed.
        with Scheduler(workers=2) as scheduler:
            scheduler.handle(open_request("s1"))
            refused = scheduler.handle(open_request(5))
            assert refused["error"] == "'session' must be a non-empty string, got 5"
            assert scheduler.handle({"cmd": "sessions"})["sessions"] == ["s1"]
            assert scheduler.handle({"cmd": "info"})["sessions"] == ["s1"]
            assert "error" not in scheduler.handle({"cmd": "metrics-export"})
            assert sum(shard.journal.entry_count() for shard in scheduler.shards) == 1

    def test_unroutable_restore_is_refused(self):
        with Scheduler(workers=2) as scheduler:
            response = scheduler.handle({"cmd": "restore", "path": "/tmp/nope"})
            assert "needs a 'session'" in response["error"]

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            Scheduler(workers=0)

    def test_unknown_mode_is_refused(self, monkeypatch):
        forbid_executors(monkeypatch)
        with pytest.raises(ValueError, match="unknown scheduler mode"):
            Scheduler(mode="fibers")
        # Thread mode is one inline shard; more is refused, not built.
        with pytest.raises(ValueError, match="one inline shard"):
            Scheduler(workers=2, mode="thread")

    def test_bad_bounds_are_refused_before_any_spawn(self, monkeypatch):
        forbid_executors(monkeypatch)
        for kwargs in (
            {"workers": 2, "mode": "process", "max_depth": 0},
            {"workers": 2, "mode": "process", "max_batch": 0},
            {"workers": 1, "max_depth": 0},
            {"workers": 4, "mode": "thread"},
        ):
            with pytest.raises(ValueError):
                Scheduler(**kwargs)

    def test_mode_defaults_from_workers(self, monkeypatch):
        from repro.service import scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "ProcessExecutor", FakeChild)
        with Scheduler(workers=2) as scheduler:
            assert scheduler.mode == "process"
            assert len(scheduler.shards) == 2
            assert scheduler.workspace is None
        with Scheduler() as scheduler:
            assert scheduler.mode == "thread"
            assert len(scheduler.shards) == 1
            assert scheduler.workspace is not None


class TestBackpressure:
    def test_full_queue_answers_overloaded(self):
        stub = RecordingStub()
        stub.block_next = True
        scheduler = Scheduler(
            workers=1, dispatcher=stub, max_depth=2, max_batch=1
        )
        try:
            blocked = scheduler.submit(parse_request("a"))
            assert stub.started.wait(timeout=30)  # worker is busy with it
            queued = [scheduler.submit(parse_request("a")) for _ in range(2)]
            rejected = scheduler.submit(parse_request("a"))
            response = rejected.result(timeout=30)
            assert response["overloaded"] is True
            assert "overloaded" in response["error"]
            assert response["session"] == "a"
            stub.release.set()
            assert blocked.result(timeout=30)["ok"]
            for future in queued:
                assert "error" not in future.result(timeout=30)
            assert scheduler.metrics()["overloaded"] == 1
        finally:
            stub.release.set()
            scheduler.close()

    def test_submit_after_close_reports_shutdown(self):
        scheduler = Scheduler(workers=1)
        scheduler.close()
        response = scheduler.submit(parse_request("a")).result(timeout=30)
        assert "shutting down" in response["error"]


class TestBatching:
    def test_queued_duplicates_drain_as_one_batch_and_hit_the_cache(self):
        stub = RecordingStub(Dispatcher())
        scheduler = Scheduler(
            workers=1, dispatcher=stub, max_depth=64, max_batch=16
        )
        try:
            assert scheduler.handle(open_request("a"))["opened"] == "a"
            stub.block_next = True
            first = scheduler.submit({"cmd": "info"})
            assert stub.started.wait(timeout=30)
            # These four queue up behind the blocker and drain as one batch.
            futures = [scheduler.submit(parse_request("a")) for _ in range(4)]
            stub.release.set()
            responses = [future.result(timeout=30) for future in futures]
            assert "error" not in first.result(timeout=30)
            # Each one ran: the repeats were answered by the result cache.
            parse_calls = [
                call for call in stub.calls if call.get("cmd") == "parse"
            ]
            assert len(parse_calls) == 4
            assert [r["cache"] for r in responses] == [False, True, True, True]
            answers = [
                {k: v for k, v in r.items() if k not in ("time", "cache")}
                for r in responses
            ]
            assert all(answer == answers[0] for answer in answers)
            assert answers[0]["accepted"] is True
            shard = scheduler.metrics()["shards"][0]
            assert shard["largest_batch"] >= 4
            assert shard["latency"]["parse"]["count"] == 4
            assert "p50" in shard["latency"]["parse"]
        finally:
            stub.release.set()
            scheduler.close()


class TestDrainAndMetrics:
    def test_close_serves_everything_already_queued(self):
        stub = RecordingStub()
        stub.block_next = True
        scheduler = Scheduler(
            workers=1, dispatcher=stub, max_depth=64, max_batch=4
        )
        blocked = scheduler.submit({"cmd": "info"})
        assert stub.started.wait(timeout=30)
        queued = [scheduler.submit(parse_request("a", f"t{i}")) for i in range(5)]
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        stub.release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert blocked.result(timeout=1)["ok"]
        for future in queued:
            assert "error" not in future.result(timeout=1)

    def test_global_metrics_carries_scheduler_section(self):
        with Scheduler(workers=2) as scheduler:
            scheduler.handle(open_request("m"))
            scheduler.handle(parse_request("m"))
            response = scheduler.handle({"cmd": "metrics"})
            section = response["scheduler"]
            assert section["mode"] == "process"
            assert section["workers"] == 2
            assert len(section["shards"]) == 2
            # open + parse, plus the metrics request broadcast to both
            assert sum(s["completed"] for s in section["shards"]) == 4

    def test_dispatcher_compatible_with_serve_loop(self):
        import io
        import json

        from repro.service import serve

        output = io.StringIO()
        with Scheduler(workers=2) as scheduler:
            serve(
                io.StringIO(
                    json.dumps(open_request("x"))
                    + "\n"
                    + json.dumps(parse_request("x"))
                    + "\n"
                ),
                output,
                scheduler,
            )
        responses = [json.loads(line) for line in output.getvalue().splitlines()]
        assert responses[0]["opened"] == "x"
        assert responses[1]["accepted"] is True


class TestMergeGlobal:
    def test_sessions_union(self):
        merged = merge_global(
            {"cmd": "sessions"},
            [
                {"cmd": "sessions", "sessions": ["a", "c"], "time": 0.1},
                {"cmd": "sessions", "sessions": ["b"], "time": 0.2},
            ],
        )
        assert merged["sessions"] == ["a", "b", "c"]
        assert merged["time"] == 0.2

    def test_metrics_sums(self):
        part = {
            "cmd": "metrics",
            "sessions": 1,
            "cache": {"hits": 2, "misses": 2, "evictions": 0, "invalidations": 1},
            "cache_entries": 2,
            "action_cache": {"action_cache_hits": 5},
            "requests": {"parse": {"count": 2, "seconds": 0.4, "mean": 0.2}},
            "time": 0.01,
        }
        merged = merge_global({"cmd": "metrics"}, [part, part])
        assert merged["sessions"] == 2
        assert merged["cache"]["hits"] == 4
        assert merged["cache"]["hit_rate"] == 0.5
        assert merged["action_cache"]["action_cache_hits"] == 10
        assert merged["requests"]["parse"] == {
            "count": 4,
            "seconds": 0.8,
            "mean": 0.2,
        }

    def test_error_part_wins(self):
        merged = merge_global(
            {"cmd": "sessions"},
            [{"cmd": "sessions", "sessions": ["a"], "time": 0.0},
             {"error": "shard 1 failed", "time": 0.0}],
        )
        assert merged["error"] == "shard 1 failed"


class TestProcessMode:
    """Each shard is a ``repro serve`` child; slower, so kept minimal."""

    def test_end_to_end_with_broadcast_merge(self):
        with Scheduler(workers=2, mode="process") as scheduler:
            # "s1" and "zz" hash to different shards (asserted, not hoped).
            assert scheduler.shard_of("s1") != scheduler.shard_of("zz")
            assert scheduler.handle(open_request("s1"))["opened"] == "s1"
            assert scheduler.handle(open_request("zz"))["opened"] == "zz"
            assert scheduler.handle(parse_request("s1"))["accepted"]
            assert scheduler.handle(parse_request("zz"))["accepted"]
            listed = scheduler.handle({"cmd": "sessions"})
            assert listed["sessions"] == ["s1", "zz"]
            metrics = scheduler.handle({"cmd": "metrics"})
            assert metrics["sessions"] == 2
            assert metrics["scheduler"]["mode"] == "process"

    def test_dead_child_answers_retryably_and_is_respawned(self):
        import time as time_module

        scheduler = Scheduler(workers=2, mode="process", backoff_ms=10)
        try:
            assert scheduler.handle(open_request("s1"))["opened"] == "s1"
            assert scheduler.handle(open_request("zz"))["opened"] == "zz"
            victim = scheduler.shards[scheduler.shard_of("s1")]
            victim.executor.terminate()
            failed = scheduler.handle(parse_request("s1"))
            assert failed["error"] == "shard-restarting"
            assert failed["retry_after_ms"] >= 0
            # The other shard keeps serving throughout the restart.
            assert scheduler.handle(parse_request("zz"))["accepted"]
            # The supervisor respawns the victim and replays its journal.
            deadline = time_module.monotonic() + 20
            while victim.state != "ok" and time_module.monotonic() < deadline:
                time_module.sleep(0.02)
            assert victim.state == "ok"
            assert scheduler.handle(parse_request("s1"))["accepted"]
        finally:
            scheduler.close()

    def test_injected_dispatcher_is_refused(self):
        with pytest.raises(ValueError):
            Scheduler(workers=2, mode="process", dispatcher=Dispatcher())

    def test_failed_spawn_terminates_already_started_children(self, monkeypatch):
        from repro.service import scheduler as scheduler_module

        spawned = []
        real = scheduler_module.ProcessExecutor

        class FlakyExecutor:
            @staticmethod
            async def spawn(cache_capacity=1024, **kwargs):
                if len(spawned) == 1:
                    raise OSError("spawn failed")
                executor = await real.spawn(
                    cache_capacity=cache_capacity, **kwargs
                )
                spawned.append(executor)
                return executor

        monkeypatch.setattr(scheduler_module, "ProcessExecutor", FlakyExecutor)
        with pytest.raises(OSError):
            Scheduler(workers=2, mode="process")
        assert len(spawned) == 1
        assert spawned[0].returncode is not None  # child reaped
