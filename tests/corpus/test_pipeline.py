"""The batch-parse pipeline: distillation, windows, retries, resume."""

import threading
from concurrent.futures import Future

import pytest

from repro.corpus.pipeline import ParseJob, distill
from repro.corpus.store import DocumentStore, ParseJournal, ResultStore
from repro.service.retry import is_retryable


class TestDistill:
    def test_accepted_counts_nonterminals_and_strips_request_fields(self):
        payload = distill(
            {
                "accepted": True,
                "engine": "compiled",
                "trees": ["START(B(B(true) or B(false)))"],
                "tree_count": 1,
                "cache": False,
                "session": "corpus:demo:0",
                "version": 4,
                "time": 0.01,
            }
        )
        assert payload == {
            "accepted": True,
            "engine": "compiled",
            "trees": ["START(B(B(true) or B(false)))"],
            "tree_count": 1,
            "nonterminals": {"START": 1, "B": 3},
        }

    def test_rejected_keeps_diagnostics(self):
        diagnostics = {"message": "unexpected 'or'", "expected": ["true"]}
        payload = distill(
            {"accepted": False, "diagnostics": diagnostics, "time": 0.01}
        )
        assert payload == {"accepted": False, "diagnostics": diagnostics}

    def test_identical_structure_identical_payload(self):
        """The hash-consing premise: responses differing only in request
        bookkeeping distill to byte-identical payloads."""
        a = distill({"accepted": True, "trees": ["START(B(true))"], "time": 1.0})
        b = distill({"accepted": True, "trees": ["START(B(true))"], "time": 2.0})
        assert a == b

    def test_is_retryable(self):
        assert is_retryable({"error": "shard-restarting", "retry_after_ms": 5})
        assert is_retryable({"error": "queue full", "overloaded": True})
        assert not is_retryable({"error": "shard-degraded"})
        assert not is_retryable({"accepted": True})


def make_stores(tmp_path, texts):
    directory = str(tmp_path / "c")
    docs = DocumentStore(directory)
    results = ResultStore(directory)
    journal = ParseJournal(str(tmp_path / "c" / "parse.log"))
    docs.add_many([(f"d{i}", text) for i, text in enumerate(texts)])
    return docs, results, journal


def resolved(response):
    future = Future()
    future.set_result(response)
    return future


class FakeService:
    """A submit() target scripted per tokens-text."""

    def __init__(self, script=None):
        self.script = script or {}
        self.requests = []
        self.lock = threading.Lock()

    def submit(self, request):
        with self.lock:
            self.requests.append(dict(request))
        answers = self.script.get(request["tokens"])
        if answers:
            return resolved(answers.pop(0))
        return resolved({"accepted": True, "trees": [f"START({request['tokens']})"]})


class TestParseJob:
    def test_drains_all_documents_and_journals(self, tmp_path):
        docs, results, journal = make_stores(tmp_path, ["alpha", "beta", "gamma"])
        service = FakeService()
        job = ParseJob(
            "demo", docs, results, journal,
            submit=service.submit, sessions=["corpus:demo:0"],
        )
        job.start()
        assert job.wait(30)
        status = job.status()
        assert status["state"] == "done"
        assert status["done"] == status["total"] == 3
        assert status["parsed_this_run"] == 3
        assert status["resumed"] == 0
        assert journal.duplicates == 0
        # Every request was polite batch traffic: cache bypass, no deadline.
        for request in service.requests:
            assert request["cache"] is False
            assert request["deadline_ms"] is None

    def test_round_robin_across_sessions(self, tmp_path):
        docs, results, journal = make_stores(
            tmp_path, [f"doc {i}" for i in range(6)]
        )
        service = FakeService()
        job = ParseJob(
            "demo", docs, results, journal,
            submit=service.submit, sessions=["s0", "s1"],
        )
        job.start()
        assert job.wait(30)
        assert {r["session"] for r in service.requests} == {"s0", "s1"}

    def test_resume_skips_journaled_documents(self, tmp_path):
        docs, results, journal = make_stores(tmp_path, ["alpha", "beta", "gamma"])
        service = FakeService()
        first = ParseJob(
            "demo", docs, results, journal,
            submit=service.submit, sessions=["s"],
        )
        first.start()
        assert first.wait(30)
        parsed_after_first = len(service.requests)
        assert parsed_after_first == 3
        # Second job over the same journal: nothing left to do, and no
        # document is ever submitted twice.
        second = ParseJob(
            "demo", docs, results, journal,
            submit=service.submit, sessions=["s"],
        )
        second.start()
        assert second.wait(30)
        status = second.status()
        assert status["resumed"] == 3
        assert status["parsed_this_run"] == 0
        assert len(service.requests) == parsed_after_first
        assert journal.duplicates == 0

    def test_retryable_answers_requeue_with_backoff(self, tmp_path):
        docs, results, journal = make_stores(tmp_path, ["flaky"])
        service = FakeService(
            script={
                "flaky": [
                    {"error": "shard-restarting", "retry_after_ms": 1},
                    {"error": "overloaded", "overloaded": True},
                    {"accepted": True, "trees": ["START(flaky)"]},
                ]
            }
        )
        job = ParseJob(
            "demo", docs, results, journal,
            submit=service.submit, sessions=["s"],
        )
        job.start()
        assert job.wait(30)
        status = job.status()
        assert status["state"] == "done"
        assert status["retries"] == 2
        assert status["done"] == 1
        assert journal.duplicates == 0

    def test_terminal_error_fails_the_job(self, tmp_path):
        docs, results, journal = make_stores(tmp_path, ["doomed"])
        service = FakeService(script={"doomed": [{"error": "shard-degraded"}]})
        job = ParseJob(
            "demo", docs, results, journal,
            submit=service.submit, sessions=["s"],
        )
        job.start()
        assert job.wait(30)
        status = job.status()
        assert status["state"] == "failed"
        assert "shard-degraded" in status["job_error"]
        assert "doomed" not in str(journal.entries)

    def test_window_bounds_in_flight(self, tmp_path):
        docs, results, journal = make_stores(
            tmp_path, [f"text {i}" for i in range(10)]
        )
        gate = threading.Event()
        peak = [0]
        live = [0]
        lock = threading.Lock()

        class Blocking:
            def submit(self, request):
                with lock:
                    live[0] += 1
                    peak[0] = max(peak[0], live[0])
                future = Future()

                def finish():
                    gate.wait(30)
                    with lock:
                        live[0] -= 1
                    future.set_result(
                        {"accepted": True, "trees": ["START(x)"]}
                    )

                threading.Thread(target=finish, daemon=True).start()
                return future

        job = ParseJob(
            "demo", docs, results, journal,
            submit=Blocking().submit, sessions=["s"], window=3,
        )
        job.start()
        # Let the drain loop fill its window against the blocked service.
        deadline = threading.Event()
        deadline.wait(0.2)
        gate.set()
        assert job.wait(30)
        assert peak[0] <= 3
        assert job.status()["done"] == 10

    def test_hash_consed_results_share_storage(self, tmp_path):
        # Ten documents, two distinct parse structures -> two result files.
        docs, results, journal = make_stores(
            tmp_path, [f"text {i}" for i in range(10)]
        )
        service = FakeService(
            script={
                f"text {i}": [
                    {"accepted": True, "trees": [f"START(shape{i % 2})"]}
                ]
                for i in range(10)
            }
        )
        job = ParseJob(
            "demo", docs, results, journal,
            submit=service.submit, sessions=["s"],
        )
        job.start()
        assert job.wait(30)
        assert len(results) == 2
        assert results.puts == 10
        assert results.dedup_hits == 8
        assert results.dedup_ratio() == pytest.approx(0.8)

    def test_needs_at_least_one_session(self, tmp_path):
        docs, results, journal = make_stores(tmp_path, ["x"])
        with pytest.raises(ValueError, match="at least one worker session"):
            ParseJob(
                "demo", docs, results, journal,
                submit=lambda request: resolved({}), sessions=[],
            )
