"""The chaos suite: kill shards mid-traffic, assert nothing acknowledged is lost.

The supervisor's contract under fire:

* an executor crash answers in-flight requests with the retryable
  ``shard-restarting`` shape — never a hang, never a silent drop;
* after respawn + journal replay, every *acknowledged* mutation exists
  again at the **exact** grammar version the client saw;
* a crash loop trips the circuit breaker into a terminal ``degraded``
  state that fails fast;
* a 50 ms deadline on a worst-case ambiguous input comes back as
  ``deadline-exceeded`` well within the 10x budget while the same
  scheduler keeps serving other sessions.
"""

import random
import time

import pytest

from repro.service import Scheduler, faults
from repro.service.retry import call_with_retries

GRAMMAR = "START ::= B\nB ::= true\nB ::= false\nB ::= B or B"

#: A conflict-free (SLR(1)-deterministic) expression grammar.
DETERMINISTIC = (
    "START ::= E\nE ::= E + T\nE ::= T\nT ::= T * F\nT ::= F\n"
    "F ::= n\nF ::= ( E )"
)

#: Worst-case ambiguity for the deadline acceptance test: E ::= E E over
#: n tokens has a Catalan number of parses.
AMBIGUOUS = "START ::= E\nE ::= E E\nE ::= x"


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def wait_for_state(shard, state, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if shard.state == state:
            return True
        time.sleep(0.02)
    return shard.state == state


def supervised_scheduler(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("mode", "process")
    kwargs.setdefault("backoff_ms", 10)
    kwargs.setdefault("max_backoff_ms", 100)
    kwargs.setdefault("max_restarts", 100)
    return Scheduler(**kwargs)


class TestCrashRecovery:
    def test_kill_answers_retryably_then_recovers_exact_state(self):
        with supervised_scheduler() as scheduler:
            opened = scheduler.handle(
                {"cmd": "open", "session": "s", "grammar": GRAMMAR}
            )
            assert "error" not in opened
            added = scheduler.handle(
                {"cmd": "add-rule", "session": "s", "rule": "B ::= maybe"}
            )
            acknowledged_version = added["version"]
            faults.arm("kill-child", times=1)
            crashed = scheduler.handle(
                {"cmd": "parse", "session": "s", "tokens": "maybe or true"}
            )
            assert crashed["error"] == "shard-restarting"
            assert crashed["retry_after_ms"] >= 0
            assert wait_for_state(scheduler.shards[0], "ok")
            # The retried parse sees the replayed session at the exact
            # acknowledged version, with the journaled rule intact.
            response = call_with_retries(
                scheduler.handle,
                {"cmd": "parse", "session": "s", "tokens": "maybe or true"},
            )
            assert response.get("accepted") is True
            assert response["version"] == acknowledged_version

    def test_recovery_is_within_the_backoff_budget(self):
        with supervised_scheduler() as scheduler:
            scheduler.handle(
                {"cmd": "open", "session": "s", "grammar": GRAMMAR}
            )
            faults.arm("kill-child", times=1)
            started = time.monotonic()
            scheduler.handle({"cmd": "parse", "session": "s", "tokens": "true"})
            assert wait_for_state(scheduler.shards[0], "ok")
            elapsed = time.monotonic() - started
            # One restart: ~backoff (<=100ms ceiling) + respawn + replay.
            # The bound is generous for CI but far below a crash loop.
            assert elapsed < 15.0
            health = scheduler.handle({"cmd": "health"})
            assert health["restarts"] == 1

    def test_chaos_traffic_loses_no_acknowledged_state(self):
        """Kill the child repeatedly under real traffic; replay must be exact."""
        rng = random.Random(42)
        sessions = [f"c{i}" for i in range(4)]
        acknowledged = {}
        with supervised_scheduler(workers=2, compact_threshold=5) as scheduler:
            for name in sessions:
                response = call_with_retries(
                    scheduler.handle,
                    {"cmd": "open", "session": name, "grammar": GRAMMAR},
                )
                assert "error" not in response, response
                acknowledged[name] = response["version"]
            kills = 0
            for step in range(60):
                name = rng.choice(sessions)
                if step % 9 == 4:
                    faults.arm("kill-child", times=1)
                    kills += 1
                if rng.random() < 0.5:
                    response = call_with_retries(
                        scheduler.handle,
                        {
                            "cmd": "add-rule",
                            "session": name,
                            "rule": f"B ::= w{step}",
                        },
                        retries=10,
                    )
                    if "error" not in response:
                        acknowledged[name] = response["version"]
                else:
                    call_with_retries(
                        scheduler.handle,
                        {"cmd": "parse", "session": name, "tokens": "true"},
                        retries=10,
                    )
            assert kills >= 6
            for shard in scheduler.shards:
                assert wait_for_state(shard, "ok")
            for name in sessions:
                response = call_with_retries(
                    scheduler.handle,
                    {"cmd": "metrics", "session": name},
                    retries=10,
                )
                assert response.get("version") == acknowledged[name], (
                    f"session {name}: acknowledged version "
                    f"{acknowledged[name]} but replayed shard reports "
                    f"{response}"
                )
            health = scheduler.handle({"cmd": "health"})
            assert health["healthy"] is True
            assert health["restarts"] >= kills
            # The per-session journals compacted at threshold 5 under
            # ~30 mutations — replay correctness above therefore also
            # covers snapshot compaction.
            compactions = sum(
                entry["journal"]["compactions"] for entry in health["shards"]
            )
            assert compactions >= 1

    def test_replayed_compaction_answers_like_the_live_session(self):
        """A conflict-free session restored from a compacted journal must
        answer through the same engine, with the same trees, as before
        the crash."""
        with supervised_scheduler(compact_threshold=3) as scheduler:
            scheduler.handle(
                {"cmd": "open", "session": "e", "grammar": DETERMINISTIC}
            )
            scheduler.handle({"cmd": "add-rule", "session": "e", "rule": "F ::= x"})
            scheduler.handle({"cmd": "add-rule", "session": "e", "rule": "F ::= y"})
            # Compaction runs on the shard's worker thread right after the
            # batch that crossed the threshold; wait for it to land.
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                health = scheduler.handle({"cmd": "health"})
                if health["shards"][0]["journal"]["compactions"]:
                    break
                time.sleep(0.02)
            assert health["shards"][0]["journal"]["compactions"] >= 1
            request = {
                "cmd": "parse", "session": "e", "tokens": "x + n * ( y + n )",
                "cache": False,
            }
            before = scheduler.handle(dict(request))
            assert before.get("accepted") is True, before
            faults.arm("kill-child", times=1)
            crashed = scheduler.handle(dict(request))
            assert crashed["error"] == "shard-restarting"
            assert wait_for_state(scheduler.shards[0], "ok")
            after = call_with_retries(scheduler.handle, dict(request))
            assert after["engine"] == before["engine"] == "gss"  # plain parse
            assert after["trees"] == before["trees"]
            assert after["version"] == before["version"]


class TestCircuitBreaker:
    def test_crash_loop_degrades_the_shard(self):
        with supervised_scheduler(
            max_restarts=2, restart_window=60.0
        ) as scheduler:
            scheduler.handle(
                {"cmd": "open", "session": "s", "grammar": GRAMMAR}
            )
            faults.arm("kill-child", times=None)  # every request crashes
            scheduler.handle({"cmd": "parse", "session": "s", "tokens": "true"})
            assert wait_for_state(scheduler.shards[0], "degraded")
            faults.reset()
            response = scheduler.handle(
                {"cmd": "parse", "session": "s", "tokens": "true"}
            )
            assert response["error"] == "shard-degraded"
            health = scheduler.handle({"cmd": "health"})
            assert health["healthy"] is False
            assert health["shards"][0]["state"] == "degraded"
            assert health["shards"][0]["breaker"]["tripped"] is True
            ready = scheduler.handle({"cmd": "ready"})
            assert ready["ready"] is False
            assert ready["degraded_shards"] == [0]


class TestDeadlineUnderTraffic:
    def test_deadline_exceeded_while_other_sessions_are_served(self):
        # Session names chosen to land on different process shards of 2.
        with Scheduler(workers=2, mode="process") as scheduler:
            shard_of = scheduler.shard_of
            names = [f"d{i}" for i in range(16)]
            slow = next(n for n in names if shard_of(n) == 0)
            fast = next(n for n in names if shard_of(n) == 1)
            scheduler.handle(
                {"cmd": "open", "session": slow, "grammar": AMBIGUOUS}
            )
            scheduler.handle(
                {"cmd": "open", "session": fast, "grammar": GRAMMAR}
            )
            tokens = " ".join(["x"] * 150)
            started = time.monotonic()
            response = scheduler.handle(
                {
                    "cmd": "parse",
                    "session": slow,
                    "tokens": tokens,
                    "deadline_ms": 50,
                }
            )
            elapsed_ms = (time.monotonic() - started) * 1000
            assert response["error"] == "deadline-exceeded"
            assert response["deadline_ms"] == 50
            assert response["tokens_consumed"] >= 0
            assert elapsed_ms < 500  # the acceptance bar: < 10x deadline
            quick = scheduler.handle(
                {"cmd": "parse", "session": fast, "tokens": "true or false"}
            )
            assert quick.get("accepted") is True

    def test_deadline_enforced_inside_process_children(self):
        with supervised_scheduler(deadline_ms=50) as scheduler:
            scheduler.handle(
                {"cmd": "open", "session": "amb", "grammar": AMBIGUOUS}
            )
            tokens = " ".join(["x"] * 150)
            response = scheduler.handle(
                {"cmd": "parse", "session": "amb", "tokens": tokens}
            )
            assert response["error"] == "deadline-exceeded"
            # Request-level override loosens the server default.
            response = scheduler.handle(
                {
                    "cmd": "parse",
                    "session": "amb",
                    "tokens": "x x x",
                    "deadline_ms": 60_000,
                }
            )
            assert response.get("accepted") is True


class TestChaosUnderIngest:
    """PR 8 satellite: kill a process shard mid ``corpus-parse``.

    The batch must complete after shard replay with zero duplicate
    parses (every document journaled exactly once) and zero lost
    documents — the crash shows up only as retries.
    """

    @staticmethod
    def _boolean_documents(count):
        documents = []
        for value in range(count):
            tokens = [
                "true" if (value >> bit) & 1 else "false" for bit in range(6)
            ]
            documents.append(" or ".join(tokens))
        return documents

    def test_shard_kill_mid_corpus_parse_loses_no_documents(self, tmp_path):
        documents = self._boolean_documents(64)
        with supervised_scheduler(
            corpus_root=str(tmp_path / "corpora")
        ) as scheduler:
            created = scheduler.handle(
                {"cmd": "corpus-create", "corpus": "chaos", "grammar": GRAMMAR}
            )
            assert "error" not in created, created
            ingested = scheduler.handle(
                {
                    "cmd": "corpus-ingest",
                    "corpus": "chaos",
                    "documents": documents,
                }
            )
            assert ingested["added"] == len(documents)
            started = scheduler.handle(
                {"cmd": "corpus-parse", "corpus": "chaos"}
            )
            assert "error" not in started, started
            # Let the drain get going, then kill the child under it.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status = scheduler.handle(
                    {"cmd": "corpus-status", "corpus": "chaos"}
                )
                if status["parsed"] >= 5:
                    break
                time.sleep(0.01)
            assert status["parsed"] >= 5, status
            faults.arm("kill-child", times=1)

            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status = scheduler.handle(
                    {"cmd": "corpus-status", "corpus": "chaos"}
                )
                job = status.get("job") or {}
                if job.get("state") in ("done", "failed", "stopped"):
                    break
                time.sleep(0.05)
            assert job.get("state") == "done", status

            # Zero lost documents, zero duplicate parses.
            assert status["documents"] == len(documents)
            assert status["parsed"] == len(documents)
            assert status["pending"] == 0
            assert status["journal"]["duplicates"] == 0
            # The kill was real: the shard restarted and the job retried
            # the in-flight window instead of dropping it.
            assert job["retries"] >= 1
            health = scheduler.handle({"cmd": "health"})
            assert health["restarts"] >= 1
            # Replay correctness, query-level: every accepted document is
            # matchable from the store the crash interrupted.
            match = scheduler.handle(
                {
                    "cmd": "corpus-query",
                    "corpus": "chaos",
                    "kind": "match",
                    "nonterminal": "B",
                    "page_size": 100,
                }
            )
            assert match["total"] == len(documents)


class TestDelayAndStallFaults:
    def test_delay_fault_slows_a_batch(self):
        with Scheduler(workers=1, mode="thread") as scheduler:
            scheduler.handle(
                {"cmd": "open", "session": "s", "grammar": GRAMMAR}
            )
            faults.arm("delay", times=1, delay_ms=80)
            started = time.monotonic()
            response = scheduler.handle(
                {"cmd": "parse", "session": "s", "tokens": "true"}
            )
            assert response.get("accepted") is True
            assert (time.monotonic() - started) >= 0.07

    def test_queue_stall_triggers_overloaded_backpressure(self):
        with Scheduler(
            workers=1, mode="thread", max_depth=2, max_batch=1
        ) as scheduler:
            scheduler.handle(
                {"cmd": "open", "session": "s", "grammar": GRAMMAR}
            )
            faults.arm("queue-stall", times=None, delay_ms=50)
            futures = [
                scheduler.submit(
                    {"cmd": "parse", "session": "s", "tokens": "true"}
                )
                for _ in range(12)
            ]
            responses = [future.result(timeout=30) for future in futures]
            faults.reset()
            overloaded = [
                r for r in responses if r.get("overloaded") is True
            ]
            assert overloaded, "bounded queue never pushed back"
            assert all(
                "error" not in r or r.get("overloaded") for r in responses
            )
