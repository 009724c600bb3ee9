"""A ``repro serve --tcp`` subprocess for benchmarks that drive the socket.

    with ServeProcess(workers=2) as server:
        sock = server.connect()

The server binds an ephemeral port on 127.0.0.1 and announces it through
``--ready-file``; :class:`ServeProcess` waits for that file, so the
server is listening once the constructor returns.  The child runs this
checkout's sources (``src`` goes first on its ``PYTHONPATH``).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

__all__ = ["ServeProcess"]

#: The directory holding the ``repro`` package.
SRC = Path(__file__).resolve().parent.parent.parent


class ServeProcess:
    """``repro serve --tcp 127.0.0.1:0 --workers N``, up until closed."""

    def __init__(
        self, workers: int, stderr: Optional[int] = None, timeout: float = 60.0
    ) -> None:
        self._scratch = tempfile.TemporaryDirectory()
        ready = os.path.join(self._scratch.name, "ready")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
             "--workers", str(workers), "--ready-file", ready],
            env=env,
            stderr=stderr,
        )
        deadline = time.monotonic() + timeout
        while not os.path.exists(ready):
            if time.monotonic() > deadline or self.process.poll() is not None:
                self.close()
                raise RuntimeError(
                    f"repro serve --workers {workers} never became ready"
                )
            time.sleep(0.01)
        with open(ready) as handle:
            host, port = handle.read().strip().rsplit(":", 1)
        self.address = (host, int(port))

    def connect(self, timeout: float = 120.0) -> socket.socket:
        """A new connection to the server, with Nagle off."""
        sock = socket.create_connection(self.address, timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def close(self) -> None:
        """Stop the server (SIGTERM drains it) and remove its scratch."""
        self.process.terminate()
        self.process.wait(timeout=60)
        self._scratch.cleanup()

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
