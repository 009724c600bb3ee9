"""E2E: the corpus service over TCP — bulk ingest, sharded batch parse,
hard-kill resumability, and Korp-style queries from the persistent store.

The acceptance path of PR 8, end to end against real ``repro serve``
subprocesses in process-shard mode: ingest >= 1k generated boolean
documents, batch-parse them across 2 shards while ``corpus-status``
reports progress, SIGKILL the server mid-parse, restart it over the same
``--corpus-root``, and assert the job *resumes* — completed documents are
never re-parsed (parse-count metrics), no document is journaled twice,
and the restarted server answers the same queries with the same results.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

#: Unambiguous on purpose: every accepted document has exactly one tree,
#: so a thousand documents parse in seconds instead of exploding into
#: Catalan-many trees under ``B ::= B or B``.
GRAMMAR = (
    "START ::= B\n"
    "B ::= true\n"
    "B ::= false\n"
    "B ::= B or true\n"
    "B ::= B or false"
)

#: 1024 distinct accepted documents (the 10-bit binary expansions) plus
#: 26 rejected ones sharing a diagnostic signature.
ACCEPTED_DOCS = 1024
REJECTED_DOCS = 26
TOTAL_DOCS = ACCEPTED_DOCS + REJECTED_DOCS


def corpus_documents():
    documents = []
    for value in range(ACCEPTED_DOCS):
        tokens = [
            "true" if (value >> bit) & 1 else "false" for bit in range(10)
        ]
        documents.append(
            {"name": f"bool-{value:04d}", "text": " or ".join(tokens)}
        )
    for index in range(REJECTED_DOCS):
        # Identical up to the failure point, distinct after it: distinct
        # documents whose distilled diagnostics are byte-identical — the
        # hash-consed result store collapses all 26 into one payload.
        documents.append(
            {"name": f"bad-{index:02d}", "text": f"true or maybe tail-{index}"}
        )
    return documents


class ServerProcess:
    """One ``repro serve`` subprocess bound to a corpus root."""

    def __init__(self, tmp_path, corpus_root, tag):
        ready = tmp_path / f"ready-{tag}"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--mode",
                "process",
                "--corpus-root",
                str(corpus_root),
                "--ready-file",
                str(ready),
            ],
            env=env,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        deadline = time.time() + 60
        while time.time() < deadline and not ready.exists():
            time.sleep(0.05)
        assert ready.exists(), "server never wrote the ready file"
        host, port = ready.read_text().strip().rsplit(":", 1)
        self.address = (host, int(port))

    def connect(self):
        sock = socket.create_connection(self.address, timeout=60)
        return sock, sock.makefile("rw", encoding="utf-8", newline="\n")

    def kill_hard(self):
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30)

    def terminate(self):
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate(timeout=30)


def exchange(stream, *requests):
    for request in requests:
        stream.write(json.dumps(request) + "\n")
    stream.flush()
    return [json.loads(stream.readline()) for _ in requests]


def poll_status(stream, corpus="bools"):
    (status,) = exchange(stream, {"cmd": "corpus-status", "corpus": corpus})
    assert "error" not in status, status
    return status


def drive_to_completion(stream, timeout=180):
    """Poll ``corpus-status`` until the job finishes; returns the trail."""
    trail = []
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = poll_status(stream)
        trail.append(status)
        job = status.get("job") or {}
        if job.get("state") in ("done", "failed", "stopped"):
            return trail
        time.sleep(0.1)
    raise AssertionError(f"corpus parse never finished: {trail[-1]}")


def strip_bookkeeping(response):
    return {
        key: value
        for key, value in response.items()
        if key not in ("time", "cache")
    }


class TestCorpusServiceEndToEnd:
    def test_ingest_parse_kill_resume_query(self, tmp_path):
        corpus_root = tmp_path / "corpora"
        documents = corpus_documents()
        server = ServerProcess(tmp_path, corpus_root, "first")
        try:
            sock, stream = server.connect()
            (created,) = exchange(
                stream,
                {"cmd": "corpus-create", "corpus": "bools", "grammar": GRAMMAR},
            )
            assert created.get("created") is True, created

            # Bulk ingest in chunks; re-ingesting a chunk is a no-op.
            added = duplicates = 0
            for start in range(0, len(documents), 210):
                (outcome,) = exchange(
                    stream,
                    {
                        "cmd": "corpus-ingest",
                        "corpus": "bools",
                        "documents": documents[start : start + 210],
                    },
                )
                assert "error" not in outcome, outcome
                added += outcome["added"]
                duplicates += outcome["duplicates"]
            assert added == TOTAL_DOCS
            assert duplicates == 0
            (again,) = exchange(
                stream,
                {
                    "cmd": "corpus-ingest",
                    "corpus": "bools",
                    "documents": documents[:210],
                },
            )
            assert again["added"] == 0 and again["duplicates"] == 210

            # Start the batch parse across both process shards and let it
            # make real progress before pulling the plug.
            (started,) = exchange(
                stream, {"cmd": "corpus-parse", "corpus": "bools"}
            )
            assert "error" not in started, started
            assert len(started["job"]["sessions"]) == 2
            deadline = time.time() + 120
            progressed = None
            while time.time() < deadline:
                status = poll_status(stream)
                if status["parsed"] >= min(100, TOTAL_DOCS // 4):
                    progressed = status
                    break
                time.sleep(0.05)
            assert progressed is not None, "no parse progress before kill"
            assert 0 < progressed["parsed"] < TOTAL_DOCS
            sock.close()
        finally:
            server.kill_hard()

        # The same corpus root, a brand-new server: the journal prefix
        # survived SIGKILL, so the re-issued parse only drains the rest.
        server = ServerProcess(tmp_path, corpus_root, "second")
        try:
            sock, stream = server.connect()
            (info,) = exchange(stream, {"cmd": "corpus-info"})
            assert info["corpora"] == ["bools"]

            (resumed,) = exchange(
                stream, {"cmd": "corpus-parse", "corpus": "bools"}
            )
            assert "error" not in resumed, resumed
            trail = drive_to_completion(stream)
            final = trail[-1]
            job = final["job"]
            assert job["state"] == "done", final

            # Resume, measured: the first run's completed documents were
            # adopted, not re-parsed, and this run only did the rest.
            assert job["resumed"] > 0
            assert job["parsed_this_run"] < TOTAL_DOCS
            assert job["resumed"] + job["parsed_this_run"] >= TOTAL_DOCS
            assert job["done"] == TOTAL_DOCS

            # Zero duplicate parses, zero lost documents.
            assert final["journal"]["duplicates"] == 0
            assert final["documents"] == TOTAL_DOCS
            assert final["parsed"] == TOTAL_DOCS
            assert final["pending"] == 0

            # Progress was visible while draining (done is monotone).
            done_trail = [s["parsed"] for s in trail]
            assert done_trail == sorted(done_trail)

            # Hash-consing: 1024 accepted docs share far fewer payloads
            # (identical parse shapes), so the store deduplicates.
            assert final["store"]["results"] < TOTAL_DOCS
            assert final["store"]["dedup_hits"] > 0

            # -- Korp-style queries over the persistent store ----------
            match_page, match_cached = exchange(
                stream,
                {
                    "cmd": "corpus-query",
                    "corpus": "bools",
                    "kind": "match",
                    "nonterminal": "B",
                    "page": 0,
                    "page_size": 200,
                },
                {
                    "cmd": "corpus-query",
                    "corpus": "bools",
                    "kind": "match",
                    "nonterminal": "B",
                    "page": 0,
                    "page_size": 200,
                },
            )
            assert match_page["total"] == ACCEPTED_DOCS
            assert len(match_page["hits"]) == 200
            assert match_page["cache"] is False
            assert match_cached["cache"] is True
            assert strip_bookkeeping(match_page) == strip_bookkeeping(
                match_cached
            )
            # Last page holds the remainder.
            (last_page,) = exchange(
                stream,
                {
                    "cmd": "corpus-query",
                    "corpus": "bools",
                    "kind": "match",
                    "nonterminal": "B",
                    "page": ACCEPTED_DOCS // 200,
                    "page_size": 200,
                },
            )
            assert len(last_page["hits"]) == ACCEPTED_DOCS % 200

            (errors,) = exchange(
                stream,
                {"cmd": "corpus-query", "corpus": "bools", "kind": "errors"},
            )
            assert errors["accepted"] == ACCEPTED_DOCS
            assert errors["rejected"] == REJECTED_DOCS
            # All 26 bad docs fail the same way: one signature group.
            assert errors["total"] == 1
            assert errors["hits"][0]["count"] == REJECTED_DOCS
            sock.close()
        finally:
            server.terminate()

        # A third process over the same root answers the same queries
        # from the persistent store alone — no parse job ever ran here.
        server = ServerProcess(tmp_path, corpus_root, "third")
        try:
            sock, stream = server.connect()
            (replayed,) = exchange(
                stream,
                {
                    "cmd": "corpus-query",
                    "corpus": "bools",
                    "kind": "match",
                    "nonterminal": "B",
                    "page": 0,
                    "page_size": 200,
                    "cache": False,
                },
            )
            assert strip_bookkeeping(replayed) == strip_bookkeeping(match_page)
            status = poll_status(stream)
            assert status["parsed"] == TOTAL_DOCS
            assert "job" not in status  # nothing ever parsed here
            sock.close()
        finally:
            server.terminate()
