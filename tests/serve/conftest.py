"""Fixtures: a real in-process server on a background event loop.

Every server binds port 0 (the kernel picks a free ephemeral port), so
parallel test runs never collide.  The constructor then waits for a
``/healthz`` answer and :meth:`LiveServer.request` retries refused or
reset connections for a bounded window — the two races that made the
live-server tests flaky on slow CI runners (the listener is bound
before ``start()`` returns, but the accept loop may not have scheduled
its first iteration yet).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.serve.server import ReproServer, ServeConfig

#: Bounded connect-retry window: 20 * 50ms = 1s of grace, then fail.
_CONNECT_RETRIES = 20
_CONNECT_BACKOFF_S = 0.05


class LiveServer:
    """A running :class:`ReproServer` plus a tiny synchronous client."""

    def __init__(self, config: ServeConfig) -> None:
        self.server = ReproServer(config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop).result(60)
        assert self.server.port is not None
        self.port = self.server.port
        self._wait_ready()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def _wait_ready(self) -> None:
        """Block until the accept loop answers /healthz."""
        status, _ = self.request("GET", "/healthz", timeout=10.0)
        assert status == 200

    def request(self, method: str, path: str, body: dict | None = None,
                timeout: float = 120.0) -> tuple[int, bytes]:
        payload = (json.dumps(body).encode()
                   if body is not None else None)
        for attempt in range(_CONNECT_RETRIES + 1):
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=timeout)
            try:
                conn.request(method, path, body=payload,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                return response.status, response.read()
            except (ConnectionRefusedError, ConnectionResetError):
                if attempt >= _CONNECT_RETRIES:
                    raise
                time.sleep(_CONNECT_BACKOFF_S)
            finally:
                conn.close()
        raise AssertionError("unreachable")

    def get_json(self, path: str) -> tuple[int, dict]:
        status, payload = self.request("GET", path)
        return status, json.loads(payload)

    def post_json(self, path: str, body: dict,
                  timeout: float = 120.0) -> tuple[int, dict]:
        status, payload = self.request("POST", path, body, timeout)
        return status, json.loads(payload)

    def close(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(), self.loop)
        self.loop.call_soon_threadsafe(self.server.request_stop, 0)
        future.result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        if not self.loop.is_running():
            self.loop.close()

    def abort(self) -> None:
        """Simulate a crash: tear the server down without draining.

        The loop stops only after the client tasks the abort cancelled
        have unwound and closed their sockets; a task still pending
        when the loop closes is reported as destroyed while pending.
        """
        async def _abort() -> None:
            self.server.abort()
            current = asyncio.current_task()
            pending = [t for t in asyncio.all_tasks() if t is not current]
            if pending:
                await asyncio.wait(pending, timeout=10)
        asyncio.run_coroutine_threadsafe(_abort(), self.loop).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        if not self.loop.is_running():
            self.loop.close()


@pytest.fixture(scope="session")
def server_factory():
    """The :class:`LiveServer` constructor, for non-function scopes."""
    return LiveServer


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    """One warm server shared by a test module (cached artifact store)."""
    cache = tmp_path_factory.mktemp("serve-cache")
    instance = LiveServer(ServeConfig(port=0, jobs=2, runs=2,
                                      cache_dir=str(cache), max_queue=8))
    yield instance
    instance.close()


@pytest.fixture
def uncached_server():
    """A fresh cache-less server (every request genuinely executes)."""
    instance = LiveServer(ServeConfig(port=0, jobs=2, runs=1,
                                      cache_dir=None))
    yield instance
    instance.close()
