"""The asyncio TCP/UNIX front end: framing, ordering, drain, signals."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.service import BackgroundServer, Scheduler

GRAMMAR = "START ::= B\nB ::= true\nB ::= false\nB ::= B or B"

OPEN = {"cmd": "open", "session": "s1", "grammar": GRAMMAR}
PARSE = {"cmd": "parse", "session": "s1", "tokens": "true or false"}


def connect(server):
    sock = socket.create_connection((server.host, server.port), timeout=30)
    return sock, sock.makefile("rw", encoding="utf-8", newline="\n")


def exchange(stream, *requests):
    """Pipeline ``requests`` on one connection; responses in order."""
    for request in requests:
        stream.write(json.dumps(request) + "\n")
    stream.flush()
    return [json.loads(stream.readline()) for _ in requests]


class TestTcpRoundTrip:
    def test_open_parse_cache(self):
        with BackgroundServer(Scheduler(workers=2)) as server:
            sock, stream = connect(server)
            try:
                opened, first, second = exchange(stream, OPEN, PARSE, PARSE)
                assert opened["opened"] == "s1"
                assert first["accepted"] is True
                # The duplicate was answered without a second parse: the
                # result cache served it, even inside the same batch.
                assert second["accepted"] is True
                assert second["cache"] is True
            finally:
                sock.close()

    def test_pipelined_responses_preserve_request_order(self):
        with BackgroundServer(Scheduler(workers=4)) as server:
            sock, stream = connect(server)
            try:
                # Sessions hash to different shards, finishing at different
                # times — the connection must still answer in order.
                names = [f"p{i}" for i in range(8)]
                requests = [
                    {"cmd": "open", "session": name, "grammar": GRAMMAR}
                    for name in names
                ] + [
                    {"cmd": "parse", "session": name, "tokens": "true"}
                    for name in names
                ]
                responses = exchange(stream, *requests)
                assert [r.get("session") for r in responses] == names + names
                assert all(r["accepted"] for r in responses[8:])
            finally:
                sock.close()

    def test_bad_json_answers_error_and_keeps_connection(self):
        with BackgroundServer(Scheduler()) as server:
            sock, stream = connect(server)
            try:
                stream.write("{nope\n")
                stream.flush()
                error = json.loads(stream.readline())
                assert "error" in error
                assert exchange(stream, OPEN)[0]["opened"] == "s1"
            finally:
                sock.close()

    def test_blank_and_comment_lines_are_skipped(self):
        with BackgroundServer(Scheduler()) as server:
            sock, stream = connect(server)
            try:
                stream.write("\n# hello\n" + json.dumps(OPEN) + "\n")
                stream.flush()
                assert json.loads(stream.readline())["opened"] == "s1"
            finally:
                sock.close()

    def test_concurrent_clients_on_distinct_sessions(self):
        with BackgroundServer(Scheduler(workers=4)) as server:
            failures = []

            def client(index):
                try:
                    sock, stream = connect(server)
                    name = f"c{index}"
                    responses = exchange(
                        stream,
                        {"cmd": "open", "session": name, "grammar": GRAMMAR},
                        *[
                            {"cmd": "parse", "session": name, "tokens": "true"}
                            for _ in range(10)
                        ],
                    )
                    sock.close()
                    if responses[0].get("opened") != name:
                        failures.append(responses[0])
                    bad = [r for r in responses[1:] if not r.get("accepted")]
                    failures.extend(bad)
                except Exception as error:  # noqa: BLE001 — test thread
                    failures.append(error)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not failures

    def test_abrupt_disconnect_does_not_kill_the_shard(self):
        # A client that pipelines requests and vanishes cancels its
        # pending futures; the shard worker must survive resolving them
        # and keep serving other clients (regression: InvalidStateError
        # used to kill the worker).
        with BackgroundServer(Scheduler(workers=1)) as server:
            sock, stream = connect(server)
            stream.write(json.dumps(OPEN) + "\n")
            for _ in range(20):
                stream.write(json.dumps(PARSE) + "\n")
            stream.flush()
            sock.close()  # vanish mid-pipeline, reading nothing
            deadline = time.time() + 30
            while time.time() < deadline:
                sock2, stream2 = connect(server)
                try:
                    response = exchange(
                        stream2,
                        {"cmd": "open", "session": "alive", "grammar": GRAMMAR},
                    )[0]
                    assert response.get("opened") == "alive" or "already open" in response.get("error", "")
                    break
                finally:
                    sock2.close()
            shard = server.scheduler.shards[0]
            assert shard.alive  # worker coroutine still running

    def test_oversized_line_answers_error_without_crashing(self):
        from repro.service.net import MAX_LINE_BYTES

        with BackgroundServer(Scheduler()) as server:
            sock, stream = connect(server)
            try:
                stream.write("x" * (MAX_LINE_BYTES + 64) + "\n")
                stream.flush()
                response = json.loads(stream.readline())
                assert "exceeds" in response["error"]
            finally:
                sock.close()
            # The server is still healthy for the next client.
            sock2, stream2 = connect(server)
            assert exchange(stream2, OPEN)[0]["opened"] == "s1"
            sock2.close()

    def test_large_requests_within_the_limit_are_served(self):
        # Bigger than asyncio's 64 KiB default limit: the stdio loop has
        # no line bound, and the socket transport must match it.
        big_grammar = GRAMMAR + "".join(
            f"\nB ::= word{i}" for i in range(6000)
        )
        assert len(big_grammar) > 64 * 1024
        with BackgroundServer(Scheduler(workers=2)) as server:
            sock, stream = connect(server)
            try:
                opened, parsed = exchange(
                    stream,
                    {"cmd": "open", "session": "big", "grammar": big_grammar},
                    {"cmd": "parse", "session": "big", "tokens": "word5999"},
                )
                assert opened["opened"] == "big"
                assert parsed["accepted"] is True
            finally:
                sock.close()

    def test_client_eof_closes_cleanly(self):
        with BackgroundServer(Scheduler()) as server:
            sock, stream = connect(server)
            stream.write(json.dumps(OPEN) + "\n")
            stream.flush()
            sock.shutdown(socket.SHUT_WR)
            assert json.loads(stream.readline())["opened"] == "s1"
            assert stream.readline() == ""  # server closed after answering
            sock.close()
            assert server.server.requests_served == 1


class TestFlowControl:
    def test_nonreading_pipeliner_pauses_the_reader(self):
        # Responses far bigger than the socket buffers park the writer in
        # drain(); the in-flight bound must then stop the reader instead
        # of buffering futures without limit.
        from repro.service.net import MAX_PIPELINED

        # ~40 KiB per `info` response: big enough that kernel socket
        # buffers can only mask a few dozen unread responses, so the
        # slot bound (not buffering) dominates the observed count.
        grammar = GRAMMAR + "".join(f"\nB ::= w{i}" for i in range(3000))
        with BackgroundServer(Scheduler()) as server:
            sock, stream = connect(server)
            try:
                assert exchange(
                    stream,
                    {"cmd": "open", "session": "big", "grammar": grammar},
                )[0]["opened"] == "big"
                flood = (
                    json.dumps({"cmd": "info", "session": "big"}) + "\n"
                ).encode() * (MAX_PIPELINED * 4)
                sock.settimeout(5)
                try:
                    sock.sendall(flood)
                except socket.timeout:
                    pass  # reader paused -> client TCP window closed: good
                time.sleep(1.0)
                # +1 open request, + responses parked in socket buffers;
                # the point is the 4x flood was NOT fully read.
                assert server.server.requests_served <= MAX_PIPELINED * 2
            finally:
                sock.close()

    def test_drain_timeout_defeats_a_stuck_reader(self):
        # A peer that sends requests but never reads must not hang the
        # graceful drain forever: after drain_timeout the connection is
        # aborted and stop() returns.
        grammar = GRAMMAR + "".join(f"\nB ::= w{i}" for i in range(400))
        server = BackgroundServer(Scheduler())
        server.server.drain_timeout = 3.0
        server.start()
        sock, stream = connect(server)
        assert exchange(
            stream, {"cmd": "open", "session": "big", "grammar": grammar}
        )[0]["opened"] == "big"
        for _ in range(300):  # ~responses >> socket buffers, never read
            stream.write(json.dumps({"cmd": "info", "session": "big"}) + "\n")
        stream.flush()
        time.sleep(0.5)
        started = time.time()
        server.stop(timeout=60)
        assert time.time() - started < 30  # bounded by drain_timeout
        sock.close()


class TestUnixSocket:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        with BackgroundServer(Scheduler(), unix_path=path):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(30)
            sock.connect(path)
            stream = sock.makefile("rw", encoding="utf-8", newline="\n")
            assert exchange(stream, OPEN)[0]["opened"] == "s1"
            sock.close()

    def test_restart_on_the_same_path(self, tmp_path):
        # Supervisor restart loop: a leftover socket file (clean or
        # unclean shutdown) must not make the next bind fail.
        path = str(tmp_path / "repro.sock")
        for _ in range(2):
            with BackgroundServer(Scheduler(), unix_path=path):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(30)
                sock.connect(path)
                sock.close()

    def test_regular_file_at_the_path_is_not_clobbered(self, tmp_path):
        path = tmp_path / "not-a-socket"
        path.write_text("precious data")
        with pytest.raises(RuntimeError):
            BackgroundServer(Scheduler(), unix_path=str(path)).start()
        assert path.read_text() == "precious data"


class TestGracefulDrain:
    def test_stop_answers_pending_then_eof(self):
        server = BackgroundServer(Scheduler(workers=2)).start()
        sock, stream = connect(server)
        responses = exchange(stream, OPEN, PARSE)
        assert responses[1]["accepted"] is True
        server.stop()  # connection is still open: drain must not hang
        assert stream.readline() == ""  # EOF after the drain
        sock.close()

    def test_new_connections_refused_while_draining(self):
        server = BackgroundServer(Scheduler()).start()
        host, port = server.host, server.port
        server.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=5)


class TestSigtermSubprocess:
    """The CI smoke test's shape, pinned as a regression test."""

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        ready = tmp_path / "ready"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--ready-file",
                str(ready),
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline and not ready.exists():
                time.sleep(0.1)
            assert ready.exists(), "server never wrote the ready file"
            port = int(ready.read_text().strip().rsplit(":", 1)[1])
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            stream = sock.makefile("rw", encoding="utf-8", newline="\n")
            responses = exchange(stream, OPEN, PARSE)
            assert responses[1]["accepted"] is True
            process.send_signal(signal.SIGTERM)
            assert stream.readline() == ""  # drained, then EOF
            sock.close()
            _, stderr = process.communicate(timeout=60)
            assert process.returncode == 0
            assert "drained cleanly" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)


class TestReadyFile:
    """--ready-file publishes a connectable address, atomically.

    Regression (PR 5): the ready file used to be created with a plain
    ``open(path, "w")`` — it *existed* (empty, then partially written)
    before the address landed, so a watcher acting on existence could
    read a truncated address and race the listening socket.  The file is
    now written to a temp name and ``os.replace``d in, so its existence
    alone certifies a complete address and a bound socket.
    """

    def test_write_ready_file_is_atomic_and_complete(self, tmp_path):
        from repro.service.net import write_ready_file

        path = tmp_path / "ready"
        write_ready_file(str(path), "127.0.0.1:4242")
        assert path.read_text() == "127.0.0.1:4242\n"
        # No temp debris, and an overwrite replaces the content whole.
        write_ready_file(str(path), "127.0.0.1:4243")
        assert path.read_text() == "127.0.0.1:4243\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ready"]

    def test_existence_implies_connectable(self, tmp_path):
        """The instant the file exists, its content must be a complete
        address whose socket accepts connections (no [ -s ] grace)."""
        ready = tmp_path / "ready"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--ready-file",
                str(ready),
            ],
            env=env,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline and not ready.exists():
                time.sleep(0.005)
            assert ready.exists(), "server never wrote the ready file"
            # Read immediately on first sight of existence: the content
            # must already be the full address, and the port must accept.
            address = ready.read_text()
            assert address.endswith("\n")
            host, port_text = address.strip().rsplit(":", 1)
            assert port_text.isdigit() and int(port_text) > 0
            sock = socket.create_connection((host, int(port_text)), timeout=30)
            stream = sock.makefile("rw", encoding="utf-8", newline="\n")
            responses = exchange(stream, OPEN, PARSE)
            assert responses[1]["accepted"] is True
            sock.close()
        finally:
            process.terminate()
            process.communicate(timeout=60)


class TestLoopRelay:
    """Process shards are served on the loop that owns the sockets."""

    def test_process_shards_relay_on_the_loop_thread(self, monkeypatch):
        from repro.service import scheduler as scheduler_module

        seen = {}
        real_begin = scheduler_module.ProcessExecutor.begin

        def begin(self, requests, done):
            seen.setdefault("child", set()).add(threading.get_ident())

            def answered(result):
                seen.setdefault("child", set()).add(threading.get_ident())
                done(result)

            real_begin(self, requests, answered)

        monkeypatch.setattr(scheduler_module.ProcessExecutor, "begin", begin)
        scheduler = Scheduler(workers=2)
        real_dispatch = scheduler.dispatch

        def dispatch(request):
            seen.setdefault("socket", set()).add(threading.get_ident())
            return real_dispatch(request)

        scheduler.dispatch = dispatch
        with BackgroundServer(scheduler) as server:
            sock, stream = connect(server)
            try:
                opened, parsed = exchange(stream, OPEN, PARSE)
                assert parsed["accepted"] is True
            finally:
                sock.close()
            names = [thread.name for thread in threading.enumerate()]
            assert not [name for name in names if "shard" in name], names
        assert seen["socket"] == seen["child"] == {scheduler._thread.ident}

    def test_child_answer_larger_than_a_pipe_buffer(self):
        from repro.service import Dispatcher

        big = {"cmd": "parse", "session": "s1",
               "tokens": " or ".join(["true"] * 10), "max_trees": 10_000}
        local = Dispatcher()
        local.handle(OPEN)
        expected = local.handle(dict(big))
        assert expected["ambiguity"]["tree_count"] == 4862
        with BackgroundServer(Scheduler(workers=2)) as server:
            sock, stream = connect(server)
            try:
                opened, answer, after = exchange(stream, OPEN, big, PARSE)
            finally:
                sock.close()
        assert len(json.dumps(answer)) > 700_000   # >> a 64 KiB pipe
        for response in (answer, expected):
            del response["time"]
        assert answer == expected
        assert after["accepted"] is True

    def test_waited_corpus_parse_leaves_other_connections_served(
        self, tmp_path
    ):
        import select

        documents = [
            " or ".join(
                "true" if (value >> bit) & 1 else "false" for bit in range(12)
            )
            for value in range(800)
        ]
        scheduler = Scheduler(workers=2, corpus_root=str(tmp_path))
        with BackgroundServer(scheduler) as server:
            job_sock, job_stream = connect(server)
            probe_sock, probe_stream = connect(server)
            try:
                created, ingested = exchange(
                    job_stream,
                    {"cmd": "corpus-create", "corpus": "c",
                     "grammar": GRAMMAR},
                    {"cmd": "corpus-ingest", "corpus": "c",
                     "documents": documents},
                )
                assert ingested["added"] == len(documents), ingested
                job_stream.write(json.dumps(
                    {"cmd": "corpus-parse", "corpus": "c", "wait": True}
                ) + "\n")
                job_stream.flush()
                time.sleep(0.2)  # let the job get going
                started = time.monotonic()
                [health] = exchange(probe_stream, {"cmd": "health"})
                elapsed = time.monotonic() - started
                running, _, _ = select.select([job_sock], [], [], 0)
                assert health["cmd"] == "health"
                # Served behind the job, it waited seconds; a loaded
                # runner still answers well inside one.
                assert elapsed < 1.0, f"health took {elapsed * 1e3:.0f} ms"
                assert not running, "the job ended before the probe: too small"
                done = json.loads(job_stream.readline())
                assert "error" not in done, done
            finally:
                job_sock.close()
                probe_sock.close()
