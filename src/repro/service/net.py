"""The asyncio TCP/UNIX-socket front end of the parse service.

Same wire format as the stdio loop — newline-delimited JSON, protocol
v2 — served concurrently on the event loop of a
:class:`~repro.service.scheduler.Scheduler` (one inline shard, or
sessions sharded across child processes): that one loop owns the
sockets and the shards, so a decoded request is handed straight to its
shard's queue and its answer comes back without a thread hop.  A
per-connection writer task emits responses **in request order**, so a
client may pipeline any number of requests on one connection and still
correlate responses by position, exactly as over stdin.

Flow control is layered: the scheduler's bounded shard queues answer
``overloaded`` errors when a shard falls behind (the client sees the
error instead of unbounded buffering), and the writer applies normal
asyncio transport backpressure (``await drain()``) toward slow readers.

Shutdown is graceful by default: SIGTERM/SIGINT stop the listener, let
every connection finish writing the responses for requests it has already
read, drain the scheduler's queues, and only then exit — a supervisor's
``kill -TERM`` loses no accepted work.  :class:`BackgroundServer` runs
the same server on its scheduler's loop thread for tests and embedding.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import signal
import socket
import stat
import sys
from typing import Any, Dict, List, Optional, Set

from . import faults
from .protocol import encode
from .scheduler import Scheduler
from .server import decode_line

__all__ = ["ParseServer", "BackgroundServer", "run_server", "write_ready_file"]

#: Per-line read limit.  asyncio's default (64 KiB) is smaller than a
#: legitimate ``restore`` request embedding a snapshot payload (which
#: carries a fully expanded parse table); the stdio loop has no such
#: bound, and the socket transport must accept the same protocol.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Per-connection in-flight response bound.  A client that pipelines
#: without reading parks the writer in ``drain()``; without this bound
#: the reader would keep buffering futures (and instant ``overloaded``
#: answers) without limit, so the shard queues alone would not bound
#: server memory.  At the limit the reader stops reading, which pushes
#: the backpressure onto the client's TCP window.
MAX_PIPELINED = 512


class ParseServer:
    """One listening socket in front of a scheduler.

    Exactly one of ``(host, port)`` or ``unix_path`` selects the address
    family.  Its coroutines run on ``scheduler.loop``.  ``start`` binds,
    :meth:`shutdown` drains; the server object is single-use.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        host: Optional[str] = None,
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        drain_timeout: float = 30.0,
        max_line_bytes: Optional[int] = None,
    ) -> None:
        if (unix_path is None) == (host is None or port is None):
            raise ValueError("pass either host+port or unix_path")
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.drain_timeout = drain_timeout
        self.max_line_bytes = (
            max_line_bytes if max_line_bytes is not None else MAX_LINE_BYTES
        )
        if self.max_line_bytes < 1:
            raise ValueError("max_line_bytes must be positive")
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set["_Connection"] = set()
        self._draining = False
        self._stop: Optional[asyncio.Event] = None  # made on the loop
        self.requests_served = 0
        self.connections_served = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if asyncio.get_running_loop() is not self.scheduler.loop:
            raise RuntimeError(
                "a ParseServer runs on its scheduler's loop "
                "(use scheduler.run(server.start()))"
            )
        self._stop = asyncio.Event()
        if self.unix_path is not None:
            self._remove_stale_socket()
            self._server = await asyncio.start_unix_server(
                self._on_connection,
                path=self.unix_path,
                limit=self.max_line_bytes,
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection,
                host=self.host,
                port=self.port,
                limit=self.max_line_bytes,
            )
            # Port 0 means "pick one": report what the OS chose.
            sockets = self._server.sockets or ()
            for listener in sockets:
                if listener.family in (socket.AF_INET, socket.AF_INET6):
                    self.port = listener.getsockname()[1]
                    break

    def _remove_stale_socket(self) -> None:
        """Unlink a leftover socket file so supervisor restarts can bind.

        Only socket files are removed — a regular file at the path is
        somebody else's data and stays put (the bind then fails loudly).
        """
        try:
            if stat.S_ISSOCK(os.stat(self.unix_path).st_mode):
                os.unlink(self.unix_path)
        except FileNotFoundError:
            pass

    @property
    def address(self) -> str:
        if self.unix_path is not None:
            return f"unix:{self.unix_path}"
        return f"{self.host}:{self.port}"

    async def shutdown(self) -> None:
        """Stop accepting, flush every connection, drain the scheduler."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        # Stop the readers; writers finish everything already submitted.
        for connection in list(self._connections):
            connection.stop_reading()
        if self._connections:
            waiters = [
                asyncio.ensure_future(c.finished())
                for c in list(self._connections)
            ]
            _done, stuck = await asyncio.wait(
                waiters, timeout=self.drain_timeout
            )
            if stuck:
                # A peer that stopped reading can park its writer in
                # drain() forever; after the grace period the drain
                # contract (exit, don't hang the supervisor) wins.
                for waiter in stuck:
                    waiter.cancel()
                for connection in list(self._connections):
                    connection.abort()
        if self._server is not None:
            # Only now: since Python 3.12 this also waits for every
            # connection's transport to close.
            await self._server.wait_closed()
        # Shard queues are already empty of our requests (every submitted
        # future resolved before the writers exited), but the drain also
        # stops intake and closes the executors.
        await self.scheduler.drain()
        if self.unix_path is not None:
            self._remove_stale_socket()

    def stop(self) -> None:
        """Ask :meth:`serve_until_stopped` to drain; call on the loop."""
        assert self._stop is not None, "stop() before start()"
        self._stop.set()

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`stop`, then drain."""
        assert self._stop is not None, "serve_until_stopped() before start()"
        try:
            await self._stop.wait()
        finally:
            await self.shutdown()

    # -- connections -------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            writer.close()
            return
        connection = _Connection(self, reader, writer)
        self._connections.add(connection)
        self.connections_served += 1
        try:
            await connection.run()
        finally:
            self._connections.discard(connection)


class _Connection:
    """One client: a reader coroutine feeding a FIFO writer coroutine."""

    def __init__(
        self,
        server: ParseServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        #: futures in request order; ``None`` is the end-of-stream sentinel
        self.pending: "asyncio.Queue[Optional[asyncio.Future]]" = asyncio.Queue()
        #: in-flight bound: the reader takes a slot per request, the
        #: writer gives it back once the response left (or was dropped)
        self._slots = asyncio.Semaphore(MAX_PIPELINED)
        self._reader_task: Optional[asyncio.Task] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._done = asyncio.Event()

    async def run(self) -> None:
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self._writer_task = asyncio.ensure_future(self._write_loop())
        try:
            await asyncio.gather(self._reader_task, self._writer_task)
        except asyncio.CancelledError:  # pragma: no cover — loop teardown
            pass
        finally:
            self._done.set()

    def stop_reading(self) -> None:
        """Drain trigger: stop accepting new requests from this client."""
        if self._reader_task is not None:
            self._reader_task.cancel()

    def abort(self) -> None:
        """Hard stop: a writer stuck on a non-reading peer past the drain
        grace period is cancelled and the transport torn down."""
        if self._writer_task is not None:
            self._writer_task.cancel()
        try:
            self.writer.transport.abort()
        except Exception:  # pragma: no cover — already-dead transport
            pass
        self._done.set()

    async def finished(self) -> None:
        await self._done.wait()

    async def _enqueue(self, make_future) -> None:
        """Take a pipeline slot, then materialize and queue the future.

        The factory runs strictly after the slot is acquired: the slot
        wait is the read loop's only cancellation point per request, so a
        drain can never cancel *between* submitting work to the scheduler
        and queueing its response — accepted work always gets answered.
        """
        await self._slots.acquire()
        self.pending.put_nowait(make_future())

    @staticmethod
    def _failed(
        loop: asyncio.AbstractEventLoop, message: str
    ) -> "asyncio.Future":
        future: asyncio.Future = loop.create_future()
        future.set_result({"error": message, "time": 0.0})
        return future

    def _submit(self, request) -> "asyncio.Future":
        self.server.requests_served += 1
        return self.server.scheduler.dispatch(request)

    async def _read_loop(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await self.reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except ValueError:
                    # A line beyond even the configured limit.  Line
                    # boundaries cannot be resynchronized after an
                    # overrun, so answer the error and stop reading from
                    # this client.
                    message = (
                        f"request line exceeds "
                        f"{self.server.max_line_bytes} bytes"
                    )
                    await self._enqueue(
                        lambda: self._failed(loop, message)
                    )
                    break
                if not line:
                    break  # client closed its write side
                requests, error = decode_line(line.decode("utf-8", "replace"))
                if error is not None:
                    await self._enqueue(
                        lambda error=error: self._failed(loop, error)
                    )
                    continue
                for request in requests:
                    if faults.fire("drop-connection"):
                        # Chaos: the client vanishes right after its
                        # request was decoded — the abort path every
                        # mid-pipeline disconnect takes.
                        self.writer.transport.abort()
                        return
                    await self._enqueue(
                        lambda request=request: self._submit(request)
                    )
        except asyncio.CancelledError:
            pass  # shutdown: keep everything already queued
        finally:
            # put_nowait: the queue is unbounded, and an await here could
            # swallow a second cancellation delivered during teardown.
            self.pending.put_nowait(None)

    async def _write_loop(self) -> None:
        try:
            while True:
                future = await self.pending.get()
                if future is None:
                    break
                response = await future
                self._slots.release()
                data = (encode(response) + "\n").encode("utf-8")
                if faults.fire("corrupt-frame"):
                    # Chaos: a torn write — half a frame, no newline.
                    # The *client* must cope (and the server must not
                    # crash); subsequent frames glue onto the fragment.
                    data = data[: max(1, len(data) // 2)]
                self.writer.write(data)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            # Client went away mid-write: keep consuming futures so the
            # scheduler's results are collected, but write nothing.
            while True:
                future = await self.pending.get()
                if future is None:
                    break
                future.cancel()
                self._slots.release()
        finally:
            try:
                self.writer.close()
            except Exception:  # pragma: no cover — already-dead transport
                pass


# -- entry points ----------------------------------------------------------


def write_ready_file(path: str, address: str) -> None:
    """Publish ``address`` at ``path`` atomically.

    Watchers poll for the file's *existence* and connect the moment it
    appears, so the contract is: if the file exists, the socket is
    already listening and the content is the complete address.  A plain
    ``open(path, "w")`` breaks that — the file exists (empty, then
    partial) before the write lands, and a fast watcher reads a truncated
    address.  Writing to a temp file and ``os.replace``-ing it in makes
    the publish a single atomic rename.
    """
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w") as handle:
        handle.write(address + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def _announce(server: ParseServer, ready_file: Optional[str]) -> None:
    print(
        f"repro service listening on {server.address} "
        f"({server.scheduler!r})",
        file=sys.stderr,
        flush=True,
    )
    if ready_file:
        # Only reached after ParseServer.start() returned, i.e. after the
        # listening socket is bound — and published atomically, so the
        # file's existence alone certifies a connectable address.
        write_ready_file(ready_file, server.address)


def run_server(
    scheduler: Scheduler,
    host: Optional[str] = None,
    port: Optional[int] = None,
    unix_path: Optional[str] = None,
    ready_file: Optional[str] = None,
) -> int:
    """Blocking entry point: serve until SIGTERM/SIGINT, drain, return 0.

    The server runs on the scheduler's loop thread; this (main) thread
    only waits, and its signal handlers hand the stop to the loop.
    """
    server = ParseServer(scheduler, host=host, port=port, unix_path=unix_path)

    def request_stop(_signum: int, _frame: Any) -> None:
        scheduler.loop.call_soon_threadsafe(server.stop)

    try:
        scheduler.run(server.start())
        previous = {
            signum: signal.signal(signum, request_stop)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            _announce(server, ready_file)
            scheduler.run(server.serve_until_stopped())
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
    finally:
        scheduler.close()
    print(
        f"repro service drained cleanly: {server.requests_served} requests "
        f"over {server.connections_served} connections",
        file=sys.stderr,
        flush=True,
    )
    return 0


class BackgroundServer:
    """A ParseServer on its scheduler's loop thread — for tests and embedding.

    ::

        with BackgroundServer(Scheduler()) as server:
            sock = socket.create_connection(("127.0.0.1", server.port))
            ...

    ``stop()`` (or leaving the ``with`` block) performs the same graceful
    drain as SIGTERM on the CLI server, then closes the scheduler.
    """

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        host: str = "127.0.0.1",
        unix_path: Optional[str] = None,
        max_line_bytes: Optional[int] = None,
    ) -> None:
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.server = ParseServer(
            self.scheduler,
            host=None if unix_path else host,
            port=None if unix_path else 0,
            unix_path=unix_path,
            max_line_bytes=max_line_bytes,
        )
        #: Unhandled event-loop exceptions (task died without anyone
        #: awaiting it).  Always empty in a healthy server — the
        #: malformed-input tests assert exactly that.
        self.loop_errors: List[str] = []
        self.scheduler.loop.set_exception_handler(self._on_loop_exception)

    def _on_loop_exception(
        self, loop: asyncio.AbstractEventLoop, context: Dict[str, Any]
    ) -> None:
        error = context.get("exception")
        self.loop_errors.append(
            f"{type(error).__name__}: {error}"
            if error is not None
            else str(context.get("message", "unknown loop error"))
        )
        loop.default_exception_handler(context)

    def start(self, timeout: float = 30.0) -> "BackgroundServer":
        started = asyncio.run_coroutine_threadsafe(
            self.server.start(), self.scheduler.loop
        )
        try:
            started.result(timeout=timeout)
        except concurrent.futures.TimeoutError:
            # A wedged bind.  Returning anyway would hand the caller a
            # server object with no address whose first connect fails
            # with something far less diagnosable.
            started.cancel()
            raise RuntimeError(
                f"server failed to start listening within {timeout:g}s "
                f"(scheduler: {self.scheduler!r})"
            ) from None
        except Exception as error:
            raise RuntimeError(f"server failed to start: {error}") from error
        return self

    @property
    def host(self) -> Optional[str]:
        return self.server.host

    @property
    def port(self) -> Optional[int]:
        return self.server.port

    @property
    def address(self) -> str:
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        if not self.scheduler.loop.is_closed():
            self.scheduler.run(self.server.shutdown())
        self.scheduler.close(timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
