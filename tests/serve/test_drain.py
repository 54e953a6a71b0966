"""A SIGTERM drain with idle keep-alive connections open stays quiet.

The server waits a bounded time for connected clients, then the event
loop cancels the handlers still idle in ``_read_request``.  Those
cancellations must end inside the handler: a handler task that ends
cancelled makes the stream's done-callback log a ``CancelledError``
traceback, which buries real errors in the server log.
"""

import http.client

from repro.resilience.campaign import _server_env
from repro.serve.spawn import spawn_server


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
        assert server.drain(timeout_s=60.0) == 0
    finally:
        for conn in connections:
            conn.close()
        server.ensure_dead()
    text = log.read_text()
    assert "Exception in callback" not in text, text
    assert "CancelledError" not in text, text
