"""Shard executors: how a shard's batch gets served.

A :class:`~repro.service.scheduler.Shard` hands each batch to its
executor's ``begin(requests, done)``; ``done`` gets the batch's
responses, or the exception that failed it.  :class:`InlineExecutor`
serves in process, :class:`ProcessExecutor` through a ``repro serve``
child.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Callable, Dict, List, Optional

from . import faults
from .dispatcher import Dispatcher
from .protocol import encode

__all__ = ["InlineExecutor", "ProcessExecutor"]

Request = Dict[str, Any]
Response = Dict[str, Any]


class InlineExecutor:
    """Thread-mode shard body: batches run on an in-process dispatcher.

    Its shard lives on a loop of its own (``repro-inline``), so a batch
    runs right on that loop: a long parse stalls it only, never the
    scheduler's.
    """

    #: A batch may run on whichever thread owns its shard's pump.
    runs_on_any_thread = True

    def __init__(self, dispatcher: Dispatcher) -> None:
        self.dispatcher = dispatcher

    def begin(
        self, requests: List[Request], done: Callable[[Any], None]
    ) -> None:
        """Serve ``requests`` now; ``done`` gets their responses, or the
        exception that failed them."""
        try:
            result: Any = [self.dispatcher.handle(r) for r in requests]
        except Exception as error:  # noqa: BLE001 — handed to the shard
            result = error
        done(result)

    async def close(self) -> None:
        pass

    def terminate(self) -> None:
        pass


class _ChildStdout(asyncio.Protocol):
    """The parent's end of a shard child's stdout.

    Cuts the stream into lines as it arrives and hands a batch all its
    answers at once, so a batch costs the loop one wake-up, not one per
    line.  The child is trusted: its lines have no length bound.
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        #: Resolved once stdout has ended (the child closed it or died).
        self.ended: "asyncio.Future[None]" = self._loop.create_future()
        self._partial = bytearray()
        self._lines: List[bytes] = []
        self._wanted = 0
        self._waiter: Optional[Callable[[Optional[List[bytes]]], None]] = None
        self._eof = False

    def expect(
        self, count: int, done: Callable[[Optional[List[bytes]]], None]
    ) -> None:
        """Call ``done`` with the next ``count`` lines, or with None if
        stdout ends first; never before this returns."""
        self._wanted = count
        self._waiter = done
        if self._eof or len(self._lines) >= count:
            self._loop.call_soon(self._deliver)

    def data_received(self, data: bytes) -> None:
        parts = data.split(b"\n")
        self._partial += parts[0]
        if len(parts) > 1:
            self._lines.append(bytes(self._partial))
            self._lines.extend(parts[1:-1])
            self._partial = bytearray(parts[-1])
            self._deliver()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._eof = True
        self.ended.set_result(None)
        self._deliver()

    def _deliver(self) -> None:
        waiter = self._waiter
        if waiter is None:
            return
        if len(self._lines) >= self._wanted:
            lines = self._lines[: self._wanted]
            del self._lines[: self._wanted]
        elif self._eof:
            lines = None
        else:
            return
        self._waiter = None
        waiter(lines)


class ProcessExecutor:
    """Process-mode shard body: a ``repro serve`` child over its pipes.

    The child is the unmodified stdio serve loop — one JSON request line
    in, one response line out — so the shard protocol *is* the service
    protocol and needs no second serializer.  A batch is written to the
    child's stdin in one write, and its answers come back together from
    stdout, on the scheduler's event loop.  The child is trusted: its
    answer lines have no length bound.
    """

    #: The pipes belong to the scheduler's loop.
    runs_on_any_thread = False

    def __init__(
        self,
        process: subprocess.Popen,
        stdin: asyncio.WriteTransport,
        stdout: asyncio.ReadTransport,
        stderr: Any,
    ) -> None:
        self._process = process
        self._stdin = stdin
        self._stdout = stdout
        self._pipes: _ChildStdout = stdout.get_protocol()  # type: ignore[assignment]
        self._stderr = stderr

    @classmethod
    async def spawn(
        cls,
        cache_capacity: int = 1024,
        deadline_ms: Optional[float] = None,
    ) -> "ProcessExecutor":
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src_dir = os.path.dirname(package_root)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not existing else src_dir + os.pathsep + existing
        )
        # Fault injection is parent-owned: a child that also parsed
        # REPRO_FAULTS would double-fire every point.
        env.pop(faults.ENV_VAR, None)
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--cache-capacity",
            str(cache_capacity),
        ]
        if deadline_ms is not None:
            argv += ["--deadline-ms", str(deadline_ms)]
        # Child stderr goes to a spooled temp file so crash tracebacks
        # survive the child (a pipe would deadlock a chatty child; the
        # parent only reads this after a failure).
        stderr = tempfile.TemporaryFile(mode="w+b")
        try:
            process = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=env,
            )
        except BaseException:
            stderr.close()
            raise
        # The pipes go straight onto the loop: an answer reaches the
        # protocol in the callback that read it.
        loop = asyncio.get_running_loop()
        try:
            stdout, _ = await loop.connect_read_pipe(_ChildStdout, process.stdout)
            stdin, _ = await loop.connect_write_pipe(asyncio.Protocol, process.stdin)
        except BaseException:
            process.kill()
            process.wait()
            stderr.close()
            raise
        return cls(process, stdin, stdout, stderr)

    @property
    def pid(self) -> int:
        return self._process.pid

    @property
    def returncode(self) -> Optional[int]:
        """The child's exit status once it has been reaped, else None."""
        return self._process.poll()

    def stderr_tail(self, limit: int = 4096) -> str:
        """The last ``limit`` bytes the child wrote to stderr."""
        try:
            self._stderr.flush()
            size = self._stderr.seek(0, os.SEEK_END)
            self._stderr.seek(max(0, size - limit))
            return self._stderr.read().decode("utf-8", "replace").strip()
        except (OSError, ValueError):
            return ""

    def _exited(self) -> RuntimeError:
        tail = self.stderr_tail()
        return RuntimeError(
            f"shard child (pid {self.pid}) exited with "
            f"code {self.returncode}"
            + (f"; stderr tail: {tail}" if tail else "")
        )

    def begin(
        self, requests: List[Request], done: Callable[[Any], None]
    ) -> None:
        """Send ``requests`` to the child; ``done`` gets their responses,
        or the exception that failed them, once the child has answered."""
        lines = []
        for request in requests:
            if faults.fire("kill-child"):
                self.terminate()
            lines.append(encode(request) + "\n")
        self._pipes.expect(len(requests), lambda answered: done(self._decode(answered)))
        # A dead child's stdout ends, which fails the batch.
        if not self._stdin.is_closing():
            self._stdin.write("".join(lines).encode("utf-8"))

    def _decode(self, answered: Optional[List[bytes]]) -> Any:
        if answered is None:
            return self._exited()
        try:
            return [json.loads(line) for line in answered]
        except ValueError as error:
            return RuntimeError(f"shard child (pid {self.pid}) answered "
                                f"malformed JSON: {error}")

    async def close(self) -> None:
        """Close stdin (EOF ends the child's serve loop) and reap it;
        a child still there after 10 s is killed."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10
        try:
            self._stdin.close()
            try:
                await asyncio.wait_for(asyncio.shield(self._pipes.ended), 10)
            except asyncio.TimeoutError:
                self.terminate()
                await self._pipes.ended
            while self.returncode is None:
                if loop.time() > deadline:
                    self.terminate()
                await asyncio.sleep(0.005)
        finally:
            self._stdout.close()
            self._stderr.close()

    def terminate(self) -> None:
        """SIGKILL the child now; :meth:`close` still reaps it."""
        if self.returncode is None:
            self._process.kill()
