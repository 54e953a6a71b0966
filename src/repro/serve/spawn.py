"""Spawn ``repro serve --port 0`` as a subprocess and find its port.

The chaos harness and ``repro loadtest`` both drive a real server
process.  The server logs to a file, never to a pipe: a pipe nobody
reads after the listening line fills up, and a chatty server (one
warning per failed job) then blocks on its next write in the middle of
a campaign.  ``repro sweep`` and ``repro serve`` never import this
module.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ServeError
from repro.serve.protocol import LISTEN_PREFIX


class ServerProc:
    """One spawned ``repro serve`` subprocess."""

    def __init__(self, proc: subprocess.Popen, host: str, port: int) -> None:
        self.proc = proc
        self.host = host
        self.port = port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def sigkill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=30)

    def drain(self, timeout_s: float = 120.0) -> int:
        """SIGTERM, then the exit code (-9 if it had to be killed)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.sigkill()
            return -9

    def ensure_dead(self) -> None:
        if self.proc.poll() is None:
            self.sigkill()


def spawn_server(flags: list[str], log_path: Path,
                 env: dict[str, str] | None = None,
                 timeout_s: float = 90.0) -> ServerProc:
    """Start ``repro serve --port 0 FLAGS``, logging to ``log_path``."""
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            stdout=log, stderr=subprocess.STDOUT, text=True, env=env)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        text = log_path.read_text()
        if LISTEN_PREFIX in text:
            address = text.split(LISTEN_PREFIX, 1)[1].split()[0]
            host, _, port = address.partition(":")
            return ServerProc(proc, host, int(port))
        if proc.poll() is not None:
            last = text.strip().splitlines()[-1:] or ["no output"]
            raise ServeError(f"spawned server exited early (code "
                             f"{proc.returncode}) before listening: "
                             f"{last[0]} (log {log_path})")
        time.sleep(0.05)
    proc.kill()
    proc.wait(timeout=30)
    raise ServeError(f"spawned server never printed its listening line; "
                     f"see {log_path}")
