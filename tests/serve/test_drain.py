"""A SIGTERM drain with idle keep-alive connections open is quick and quiet.

Once every job has answered, the drain cancels the handlers still idle
in ``_read_request`` instead of waiting out its bounded client wait.
Those cancellations must end inside the handler: a handler task that
ends cancelled makes the stream's done-callback log a ``CancelledError``
traceback, which buries real errors in the server log.
"""

import http.client
import time

from repro.resilience.campaign import _server_env
from repro.serve.spawn import spawn_server


#: Far below the drain's 5 s bounded wait for connected clients, which
#: idle keep-alive connections used to cost in full.
DRAIN_BUDGET_S = 2.0


def test_sigterm_with_idle_keepalive_connections_logs_no_traceback(tmp_path):
    log = tmp_path / "serve.log"
    server = spawn_server(["--jobs", "1", "--no-cache"], log, _server_env(),
                          90.0)
    connections = []
    try:
        for _ in range(2):
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=30)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            connections.append(conn)  # kept open: idle between requests
        start = time.monotonic()
        assert server.drain(timeout_s=60.0) == 0
        elapsed = time.monotonic() - start
    finally:
        for conn in connections:
            conn.close()
        server.ensure_dead()
    text = log.read_text()
    assert "Exception in callback" not in text, text
    assert "CancelledError" not in text, text
    assert elapsed < DRAIN_BUDGET_S, f"drain took {elapsed:.2f}s"
