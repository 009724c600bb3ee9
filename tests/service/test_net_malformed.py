"""Malformed network input: structured errors or clean closes — never a
dead asyncio task.

Every test asserts two things: the client observes either a structured
``{"error": ...}`` response or a clean connection close, and the server's
event loop recorded **zero unhandled exceptions** (``BackgroundServer``
captures them via the loop exception handler) while remaining able to
serve a well-formed request afterwards.
"""

import json
import socket

import pytest

from repro.service import BackgroundServer, Scheduler, faults

GRAMMAR = "START ::= B\nB ::= true\nB ::= false"
OPEN = {"cmd": "open", "session": "ok", "grammar": GRAMMAR}


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture()
def server():
    # A small line limit keeps the oversized-line test from shipping
    # 16 MB through the loopback.
    with BackgroundServer(Scheduler(), max_line_bytes=64 * 1024) as running:
        yield running


def connect(server):
    sock = socket.create_connection((server.host, server.port), timeout=30)
    return sock, sock.makefile("rw", encoding="utf-8", newline="\n")


def assert_still_serving(server):
    """The real postcondition: no task died, the server still answers."""
    assert server.loop_errors == []
    sock, stream = connect(server)
    try:
        stream.write(json.dumps({**OPEN, "force": True}) + "\n")
        stream.flush()
        assert json.loads(stream.readline())["opened"] == "ok"
    finally:
        sock.close()


class TestMalformedInput:
    def test_oversized_line_answers_error_then_closes(self, server):
        sock, stream = connect(server)
        try:
            stream.write('{"cmd":"parse","tokens":"' + "x" * (80 * 1024))
            stream.write('"}\n')
            stream.flush()
            # The server answers a structured error and stops reading;
            # because our oversized line may still sit unread in its
            # socket buffer, the close can surface as a reset before the
            # error line is delivered.  Both are clean outcomes — what
            # is *not* allowed is a hang or a dead server task.
            try:
                line = stream.readline()
            except ConnectionError:
                line = ""
            if line:
                assert "exceeds" in json.loads(line)["error"]
        finally:
            sock.close()
        assert_still_serving(server)

    def test_invalid_json_answers_structured_error(self, server):
        sock, stream = connect(server)
        try:
            stream.write("{definitely not json\n")
            stream.flush()
            assert "error" in json.loads(stream.readline())
            # The connection survives malformed JSON (framing intact).
            stream.write(json.dumps(OPEN) + "\n")
            stream.flush()
            assert json.loads(stream.readline())["opened"] == "ok"
        finally:
            sock.close()
        assert_still_serving(server)

    def test_binary_garbage(self, server):
        sock, _stream = connect(server)
        try:
            sock.sendall(bytes(range(256)) + b"\n")
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
            # Every answered line must be a structured error, and the
            # server must close cleanly afterwards.
            for line in filter(None, reply.split(b"\n")):
                assert b'"error"' in line
        finally:
            sock.close()
        assert_still_serving(server)

    def test_mid_frame_disconnect(self, server):
        sock, stream = connect(server)
        stream.write('{"cmd":"parse","session":"ok","tok')  # no newline
        stream.flush()
        sock.close()  # vanish mid-frame
        assert_still_serving(server)

    def test_disconnect_with_pipelined_requests_in_flight(self, server):
        sock, stream = connect(server)
        stream.write(json.dumps(OPEN) + "\n")
        for _ in range(20):
            stream.write(
                json.dumps(
                    {"cmd": "parse", "session": "ok", "tokens": "true"}
                )
                + "\n"
            )
        stream.flush()
        sock.close()  # leave before reading any response
        assert_still_serving(server)

    def test_empty_connection(self, server):
        sock, _stream = connect(server)
        sock.close()
        assert_still_serving(server)


class TestInjectedTransportFaults:
    def test_drop_connection_fault_aborts_cleanly(self, server):
        faults.arm("drop-connection", times=1)
        sock, stream = connect(server)
        try:
            stream.write(json.dumps(OPEN) + "\n")
            stream.flush()
            # The server aborts the transport after decoding: we see EOF
            # or a reset, never a hang.
            try:
                assert stream.readline() == ""
            except ConnectionError:
                pass
        finally:
            sock.close()
        assert_still_serving(server)

    def test_corrupt_frame_fault_keeps_server_healthy(self, server):
        faults.arm("corrupt-frame", times=1)
        sock, stream = connect(server)
        try:
            stream.write(json.dumps(OPEN) + "\n")
            stream.write(
                json.dumps(
                    {"cmd": "parse", "session": "ok", "tokens": "true"}
                )
                + "\n"
            )
            stream.flush()
            sock.shutdown(socket.SHUT_WR)
            payload = stream.read()
            # The first frame was truncated mid-JSON; the client's view
            # is garbage but the server's loop never crashed.
            lines = payload.split("\n")
            with pytest.raises(json.JSONDecodeError):
                json.loads(lines[0])
        finally:
            sock.close()
        assert_still_serving(server)


class TestStartupFailure:
    def test_start_raises_when_thread_never_signals_ready(self):
        import asyncio

        background = BackgroundServer(Scheduler())

        async def wedged():
            await asyncio.Event().wait()

        # A start coroutine that never returns — the shape of a wedged
        # bind.  start() must raise, not hand back a server object with
        # no address.
        background.server.start = wedged
        with pytest.raises(RuntimeError, match="failed to start listening"):
            background.start(timeout=0.2)
        background.scheduler.close()

    def test_start_surfaces_bind_errors(self):
        import socket as socket_module

        blocker = socket_module.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            background = BackgroundServer(Scheduler())
            background.server.port = port  # force a bind conflict
            with pytest.raises(RuntimeError, match="failed to start"):
                background.start()
            background.scheduler.close()
        finally:
            blocker.close()
