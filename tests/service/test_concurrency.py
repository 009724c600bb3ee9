"""Thread-safety regressions: the shared cache, the registry, the pool.

The PR 1 structures were written for one thread.  One dispatcher is
still driven from two threads at once: a ``corpus-parse`` job runs on
its own ``ParseJob`` thread and calls ``Dispatcher.handle`` while the
caller's thread keeps serving.  These tests hammer exactly the
operations that used to race (LRU put/evict vs invalidate, registry
open/close vs names), drive that corpus job against session churn, and
then check the internal invariants that a torn update breaks.
"""

import random
import sys
import threading

from repro.bench.workloads import service_requests
from repro.service import Dispatcher, ResultCache, Scheduler, Workspace

GRAMMAR = "START ::= B\nB ::= true\nB ::= false\nB ::= B or B"


def run_threads(workers):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)


class TestResultCacheThreadSafety:
    def test_hammer_put_get_invalidate(self):
        cache = ResultCache(capacity=64)
        sessions = [f"s{i}" for i in range(8)]
        errors = []

        def worker():
            rng = random.Random(threading.get_ident())
            try:
                for step in range(3000):
                    session = rng.choice(sessions)
                    key = (session, step % 7, "parse", (str(step % 11),), None)
                    roll = rng.random()
                    if roll < 0.5:
                        cache.put(key, {"accepted": True})
                    elif roll < 0.9:
                        cache.get(key)
                    else:
                        cache.invalidate(session)
            except Exception as error:  # noqa: BLE001 — collected for assert
                errors.append(error)

        run_threads([worker] * 8)
        assert not errors
        cache.check_consistency()
        assert len(cache) <= cache.capacity

    def test_eviction_under_contention_keeps_index_in_sync(self):
        cache = ResultCache(capacity=8)  # tiny: every put evicts

        def worker():
            for step in range(2000):
                cache.put((f"s{step % 3}", step, "parse", (), None), step)

        run_threads([worker] * 4)
        cache.check_consistency()
        assert len(cache) <= 8


class TestWorkspaceThreadSafety:
    def test_concurrent_open_close_names(self):
        workspace = Workspace()
        errors = []

        def worker(index):
            def body():
                try:
                    for round_number in range(20):
                        name = f"w{index}-{round_number}"
                        workspace.open(name, GRAMMAR)
                        workspace.names()
                        len(workspace)
                        workspace.action_cache_summary()
                        workspace.close(name)
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            return body

        run_threads([worker(i) for i in range(6)])
        assert not errors
        assert len(workspace) == 0

    def test_parse_races_registry_scans(self):
        workspace = Workspace()
        workspace.open("stable", GRAMMAR)
        stop = threading.Event()
        errors = []

        def parser():
            try:
                step = 0
                while not stop.is_set():
                    workspace.parse("stable", f"true or {'false or ' * (step % 3)}true")
                    step += 1
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def scanner():
            try:
                while not stop.is_set():
                    workspace.names()
                    workspace.action_cache_summary()
                    len(workspace.cache)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=parser),
                   threading.Thread(target=scanner)]
        for thread in threads:
            thread.start()
        threads[0].join(timeout=2)  # let them race for a bounded while
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        workspace.cache.check_consistency()


class TestCorpusJobThread:
    """The thread the registry and cache locks still exist for."""

    def test_corpus_parse_races_session_churn(self, tmp_path):
        # Every true/false sentence of 1..5 operands: 62 distinct docs.
        documents = []
        for length in range(1, 6):
            for bits in range(2 ** length):
                documents.append(
                    " or ".join(
                        "true" if bits >> i & 1 else "false"
                        for i in range(length)
                    )
                )
        dispatcher = Dispatcher(corpus_root=str(tmp_path / "corpora"))
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings per second

        def call(request):
            response = dispatcher.handle(request)
            if "error" in response:
                errors.append(response)
            return response

        try:
            call({"cmd": "corpus-create", "corpus": "race", "grammar": GRAMMAR})
            call({"cmd": "corpus-ingest", "corpus": "race",
                  "documents": documents})
            # Returns at once; the ParseJob thread drains the corpus
            # through Dispatcher.handle while this thread churns below.
            call({"cmd": "corpus-parse", "corpus": "race", "wait": False})
            rounds = 0
            status = call({"cmd": "corpus-status", "corpus": "race"})
            while status["job"]["state"] in ("pending", "running"):
                name = f"churn{rounds}"
                call({"cmd": "open", "session": name, "grammar": GRAMMAR})
                call({"cmd": "parse", "session": name,
                      "tokens": "true or false"})
                call({"cmd": "sessions"})
                call({"cmd": "metrics"})
                call({"cmd": "close", "session": name})
                rounds += 1
                assert rounds < 100_000, "corpus job never finished"
                status = call({"cmd": "corpus-status", "corpus": "race"})
            assert not errors
            assert rounds >= 1  # the churn really overlapped the job
            job = status["job"]
            assert job["state"] == "done"
            assert job["done"] == job["accepted"] == len(documents)
            assert job["parsed_this_run"] == len(documents)
            assert dispatcher.workspace.names() == ("corpus:race:0",)
            dispatcher.workspace.cache.check_consistency()
        finally:
            sys.setswitchinterval(interval)
            dispatcher.close()


class TestSchedulerHammer:
    """The generated multi-session workload from concurrent clients."""

    def test_interleaved_traffic_with_global_scans(self):
        requests = service_requests(sessions=8, requests_per_session=6, seed=3)
        per_session = {}
        for request in requests:
            per_session.setdefault(request.get("session"), []).append(request)
        globals_only = per_session.pop(None, [])
        errors = []

        # One inline shard: many client threads queue into it while a
        # scanner interleaves global commands.
        with Scheduler(max_depth=1024) as scheduler:
            def client(chunk):
                def body():
                    for request in chunk:
                        response = scheduler.handle(request)
                        if "error" in response:
                            errors.append(response)

                return body

            def scanner():
                for _ in range(30):
                    for request in ({"cmd": "sessions"}, {"cmd": "metrics"}):
                        response = scheduler.handle(request)
                        if "error" in response:
                            errors.append(response)

            run_threads(
                [client(chunk) for chunk in per_session.values()] + [scanner]
            )
            for request in globals_only:
                response = scheduler.handle(request)
                assert "error" not in response
            metrics = scheduler.handle({"cmd": "metrics"})
            assert metrics["sessions"] == 8
            completed = sum(
                shard["completed"]
                for shard in metrics["scheduler"]["shards"]
            )
            assert completed >= len(requests)
            scheduler.workspace.cache.check_consistency()
        assert not errors
