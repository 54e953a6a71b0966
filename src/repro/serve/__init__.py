"""repro.serve — the optimization pipeline as a long-lived service.

The paper's compile→profile→optimize→simulate pipeline normally runs as
a one-shot script (``repro sweep``).  This package wraps it in a
zero-dependency asyncio JSON-over-HTTP server so many clients can share
one warm process pool and one artifact cache:

* :mod:`repro.serve.protocol` — request validation and
  canonicalization; identical requests from different clients reduce to
  the same content-addressed request key.
* :mod:`repro.serve.coalesce` — the single-flight job table: concurrent
  identical submissions coalesce onto one in-flight DAG run, and
  recently finished jobs are replayed from an LRU.
* :mod:`repro.serve.queueing` — bounded admission (full queue → 429)
  and per-tenant weighted fair queueing.
* :mod:`repro.serve.server` — the hand-rolled HTTP/1.1 server:
  ``POST /v1/optimize``, ``POST /v1/sweep``, ``GET /v1/jobs/<id>``, a
  chunked ``GET /v1/jobs/<id>/events`` stream, ``GET /healthz`` and
  ``GET /v1/metrics``; graceful drain on SIGINT/SIGTERM.
* :mod:`repro.serve.jobstore` — the crash-safe job journal behind
  ``repro serve --store-dir`` / ``--resume``: every admitted job is
  recorded with fsync'd appends, so a SIGKILL'd server resumes with
  finished jobs replaying byte-identically and interrupted ones
  re-running through the artifact cache.
* :mod:`repro.serve.client` — the resilient stdlib client (timeouts,
  capped jittered backoff, ``Retry-After`` honoring, idempotent
  resubmission by content hash, circuit breaker) shared by
  ``repro loadtest`` and the chaos harness
  (:mod:`repro.resilience.campaign`, whose serve scenario kills a warm
  worker mid-request: the request must finish via retry or fail closed
  with a clean 5xx).

``repro loadtest`` (:mod:`repro.perf.loadtest`) replays thousands of
concurrent mixed requests against a server and writes
``BENCH_serve.json``.  See ``docs/serving.md``.
"""

from .protocol import ParsedRequest, parse_request
from .server import ReproServer, ServeConfig, run_server

__all__ = [
    "ParsedRequest",
    "parse_request",
    "ReproServer",
    "ServeConfig",
    "run_server",
]
