"""The ``repro serve`` TCP server as the benchmark sees it from outside:
spawn, readiness, a blocking client connection, peak RSS of the process
tree from ``/proc``, and cleanup that holds even when a run fails.

The server runs in its own process group, so stopping it stops its shard
children too; its pid is written next to its files, so a later run can
reap a server that a killed run left behind.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

PID_FILE = "server.pid"


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _is_repro_server(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            argv = handle.read().split(b"\0")
    except OSError:
        return False
    return b"repro" in argv and b"serve" in argv


def reap_stale(run_dir: str) -> None:
    """Stop the server group a crashed run left in ``run_dir``."""
    try:
        with open(os.path.join(run_dir, PID_FILE)) as handle:
            pid = int(handle.read().strip())
    except (OSError, ValueError):
        return
    if _alive(pid) and _is_repro_server(pid):
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _children(pid: int) -> List[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of the processes' peak resident sets (``VmHWM``), in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Connection:
    """One line-framed client connection with at most one request in
    flight (a closed loop)."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        self._sent = 0.0

    def send(self, request: Dict[str, Any]) -> None:
        data = (json.dumps(request, separators=(",", ":")) + "\n").encode()
        self._sent = time.perf_counter()
        self.sock.sendall(data)

    def receive(self) -> Optional[Tuple[Dict[str, Any], float]]:
        """Read what has arrived; ``(response, seconds since send)`` once
        the response line is complete and decoded, else None."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk
        line, newline, rest = self._buffer.partition(b"\n")
        if not newline:
            return None
        self._buffer = rest
        response = json.loads(line)
        return response, time.perf_counter() - self._sent

    def call(self, request: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        """Blocking round trip."""
        self.send(request)
        while True:
            received = self.receive()
            if received is not None:
                return received

    def close(self) -> None:
        self.sock.close()


class ServerProcess:
    """``repro serve --tcp 127.0.0.1:0 --workers 2 --mode process``."""

    def __init__(self, root: str, run_dir: str, workers: int = 2) -> None:
        self.root = root
        self.run_dir = run_dir
        self.workers = workers
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait until every shard answers; returns the seconds
        from spawn to that answer (the workload's set-up time)."""
        ready = os.path.join(self.run_dir, "ready")
        if os.path.exists(ready):
            os.unlink(ready)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        # Shard children spool their stderr to temp files: keep those
        # inside the run directory.
        env["TMPDIR"] = self.run_dir
        started = time.perf_counter()
        with open(os.path.join(self.run_dir, "server.log"), "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--tcp", f"{self.host}:0", "--workers", str(self.workers),
                 "--mode", "process", "--ready-file", ready],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True,
            )
        with open(os.path.join(self.run_dir, PID_FILE), "w") as handle:
            handle.write(str(self.process.pid))
        deadline = started + timeout
        while not os.path.exists(ready):
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} before "
                    f"listening (see {self.run_dir}/server.log)"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not listen in time")
            time.sleep(0.002)
        with open(ready) as handle:
            self.port = int(handle.read().strip().rpartition(":")[2])
        probe = self.connect()
        try:
            # ``info`` is broadcast to every process shard: its answer
            # means each child has imported the package and is serving.
            response, _ = probe.call({"cmd": "info"})
        finally:
            probe.close()
        if "error" in response:
            raise RuntimeError(f"server not ready: {response['error']}")
        return time.perf_counter() - started

    def connect(self) -> Connection:
        return Connection(self.host, self.port)

    def pids(self) -> List[int]:
        if self.process is None:
            return []
        return [self.process.pid] + _children(self.process.pid)

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful SIGTERM drain; the whole group is killed if it hangs."""
        if self.process is None:
            return
        process, self.process = self.process, None
        if process.poll() is None:
            try:
                # The server, not the group: it drains and then closes
                # its shard children itself.
                process.send_signal(signal.SIGTERM)
                process.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)  # stragglers, if any
        except ProcessLookupError:
            pass
        process.wait()
        os.unlink(os.path.join(self.run_dir, PID_FILE))
