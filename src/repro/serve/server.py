"""The asyncio JSON-over-HTTP optimization server.

Zero new dependencies: hand-rolled HTTP/1.1 over ``asyncio`` streams
(request-line + headers + ``Content-Length`` bodies, keep-alive,
chunked transfer for the event stream).  Endpoints::

    POST /v1/optimize        one workload at one deadline
    POST /v1/sweep           a grid, like `repro sweep`
    POST /v1/taskgraph       a multi-core task-graph grid
    GET  /v1/jobs/<id>       job status document
    GET  /v1/jobs/<id>/events    chunked NDJSON progress stream
    GET  /v1/metrics         live observe counters + derived ratios
    GET  /healthz            liveness, queue depths, worker pids

Execution model: the event loop owns all bookkeeping (queue, job
table); each admitted job runs on a thread from a small run pool, and
that thread drives the existing DAG executor against the **shared**
:class:`~repro.runtime.executor.WorkerPool` — warm worker processes
that persist across requests, keeping solver warm-basis registries and
compiled-simulator caches alive.  Identical concurrent submissions
coalesce onto one DAG run (:mod:`repro.serve.coalesce`); admission is
bounded and tenant-fair (:mod:`repro.serve.queueing`).

Responses for finished work contain the *exact* rows ``repro sweep``
would write to ``results.jsonl`` (same record builder, same canonical
JSON), so a served answer is byte-comparable to a local run.  A job
whose verification fails — or whose worker died past its retry budget —
fails **closed**: a clean 5xx JSON error, never a partial or unverified
schedule.

Graceful drain (SIGTERM/SIGINT): new submissions get 503, queued jobs
are cancelled (their waiters get 503), in-flight jobs finish and answer
their clients, then the process exits — 0 for SIGTERM, 130 for SIGINT,
matching the CLI's documented ladder.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import sys
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro import observe
from repro.errors import ProtocolError, ServeError
from repro.resilience import EXIT_INTERRUPTED, EXIT_OK, faultplane
from repro.runtime import manifest as manifest_mod
from repro.runtime.cache import ArtifactStore
from repro.runtime.dag import build_task_graph
from repro.runtime.executor import ExecutorConfig, WorkerPool, run_graph
from repro.serve import protocol
from repro.serve.coalesce import DEFAULT_DONE_MAX_BYTES, Job, JobTable
from repro.serve.jobstore import JobStore, StoredJob
from repro.serve.queueing import FairQueue, QueueFull

logger = logging.getLogger("repro.serve")

#: Maximum request head (request line + headers) the parser will read.
MAX_HEAD_BYTES = 16 * 1024


@dataclass(frozen=True)
class ServeConfig:
    """Deployment knobs for one server instance."""

    host: str = "127.0.0.1"
    port: int = 8787  # 0 -> ephemeral (the chosen port is printed)
    jobs: int = 2  # warm worker processes (the DAG execution pool)
    runs: int = 2  # DAG runs in flight at once
    max_queue: int = 64  # admission bound (queued jobs)
    max_grid: int = 64  # experiments per request
    max_body: int = 1 << 20  # request body ceiling (413 beyond)
    cache_dir: str | None = None  # artifact store; None disables caching
    store_dir: str | None = None  # job store; None disables durability
    resume: bool = False  # recover jobs from store_dir on start
    done_capacity: int = 256  # finished-job LRU entry bound
    done_max_bytes: int = DEFAULT_DONE_MAX_BYTES  # finished-job LRU byte bound
    task_timeout_s: float | None = 600.0
    retries: int = 1
    solver_backend: str = "auto"  # default when a request does not choose
    tenant_weights: dict[str, float] = field(default_factory=dict)
    retry_after_s: int = 1  # the 429 Retry-After hint


def _dump(document: Any) -> bytes:
    """Canonical response JSON — the same form ``results.jsonl`` uses."""
    return (json.dumps(document, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _head(status: int, extra: dict[str, str] | None = None,
          length: int | None = None, chunked: bool = False) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             "Content-Type: application/json"]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    elif length is not None:
        lines.append(f"Content-Length: {length}")
    for name, value in (extra or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


class _HttpRequest:
    """One parsed request: method, path, headers, body."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str,
                 headers: dict[str, str], body: bytes) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body


class ReproServer:
    """The service: listener, queue, job table, warm pool, run threads."""

    def __init__(self, config: ServeConfig) -> None:
        if config.runs < 1:
            raise ServeError(f"runs must be >= 1, got {config.runs}")
        if config.resume and not config.store_dir:
            raise ServeError("resume requires a job store (store_dir)")
        self.config = config
        self.store = (ArtifactStore(config.cache_dir)
                      if config.cache_dir else None)
        self.jobstore = JobStore(config.store_dir) if config.store_dir else None
        self.pool = WorkerPool(config.jobs)
        self.table = JobTable(done_capacity=config.done_capacity,
                              done_max_bytes=config.done_max_bytes)
        self.queue = FairQueue(max_queue=config.max_queue,
                               weights=dict(config.tenant_weights))
        self._run_threads = ThreadPoolExecutor(
            max_workers=config.runs, thread_name_prefix="repro-serve-run")
        self._running = 0
        self._draining = False
        self._exit_code = EXIT_OK
        self._stop_requested = asyncio.Event()
        self._work_available = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._clients: set[asyncio.Task] = set()
        # Stream wake-ups in flight: the loop holds tasks only weakly, so
        # these references keep each one alive until it has run.
        self._notifiers: set[asyncio.Task] = set()
        self._aborted = False
        self._scheduler_task: asyncio.Task | None = None
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None
        self._started_at = observe.clock()

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener, warm the pool, start the scheduler."""
        self._loop = asyncio.get_running_loop()
        if not observe.enabled():
            observe.enable()
        recovered: dict[str, StoredJob] = {}
        if self.jobstore is not None:
            if self.config.resume:
                recovered = self.jobstore.load()
            self.jobstore.start(resume=self.config.resume,
                                recovered=recovered)
        self._server = await asyncio.start_server(
            self._client_connected, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._install_signal_handlers()
        self._scheduler_task = asyncio.create_task(self._scheduler())
        for stored in recovered.values():
            self._restore_job(stored)
        # Fork the workers now so the first request finds them warm.
        await self._loop.run_in_executor(None, self.pool.warm_up)

    def _restore_job(self, stored: StoredJob) -> None:
        """Re-materialize one job recovered from the job store.

        Terminal jobs are rehydrated straight into the finished-job LRU
        so duplicate submissions replay the byte-identical stored
        response.  Queued and interrupted (``running``) jobs are
        re-admitted and re-run — their DAG tasks land on the same
        artifact-cache keys, so completed stages are not recomputed.
        """
        try:
            parsed = protocol.from_canonical(stored.request,
                                             tenant=stored.tenant)
        except ProtocolError as error:
            logger.warning("jobstore: dropping unrecoverable job %s…: %s",
                           stored.key[:12], error)
            return
        job = Job(request=parsed)
        if stored.terminal:
            job.state = stored.state
            job.result = stored.result
            job.error = stored.error
            job.http_status = stored.http_status
            job.finished = observe.clock()
            job.done_event.set()
            self.table.rehydrate(job)
            observe.add("serve.jobs.replayed")
            self._emit(job, {"event": "replayed", "from": "jobstore"})
            return
        self.table.inflight[parsed.request_key] = job
        try:
            self.queue.push(parsed.tenant, parsed.cost, job)
        except QueueFull:
            # Stays admitted in the compacted journal; the next resume
            # gets another chance once the queue has room.
            self.table.inflight.pop(parsed.request_key, None)
            logger.warning("jobstore: queue full, deferring recovered "
                           "job %s…", stored.key[:12])
            return
        observe.add("serve.jobs.recovered")
        self._emit(job, {"event": "recovered", "prior_state": stored.state})
        self._work_available.set()

    def _install_signal_handlers(self) -> None:
        assert self._loop is not None
        for signum, code in ((signal.SIGTERM, EXIT_OK),
                             (signal.SIGINT, EXIT_INTERRUPTED)):
            try:
                self._loop.add_signal_handler(
                    signum, self.request_stop, code)
            except (NotImplementedError, RuntimeError):
                # Non-main-thread loops (tests) and exotic platforms:
                # stop via request_stop() instead of a signal.
                break

    def request_stop(self, exit_code: int = EXIT_OK) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe)."""
        if not self._draining:
            self._draining = True
            self._exit_code = exit_code
            logger.info("drain requested (exit code %d)", exit_code)
        self._stop_requested.set()

    async def serve_until_stopped(self) -> int:
        """Run until a stop is requested, then drain; returns exit code."""
        await self._stop_requested.wait()
        return await self.drain()

    async def drain(self) -> int:
        """Cancel queued jobs, let running ones finish, close the listener."""
        self._draining = True
        for job in self.queue.clear():
            self._cancel_job(job)
        # In-flight jobs complete and answer their (possibly waiting)
        # clients; only then stop accepting and tear down.
        await self._idle.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
        if self._clients:
            await asyncio.wait(self._clients, timeout=5.0)
        if self._notifiers:
            await asyncio.wait(self._notifiers, timeout=5.0)
        self._run_threads.shutdown(wait=True)
        self.pool.close()
        if self.jobstore is not None:
            self.jobstore.close()
        return self._exit_code

    def abort(self) -> None:
        """Tear the server down *without* draining (crash simulation).

        Queued and running jobs are simply dropped — the state a SIGKILL
        leaves behind — so only the job store knows about them.  Every
        journal append is already fsynced, so there is nothing to flush;
        ``--resume`` on the same store directory recovers the jobs.

        A running job's DAG stops submitting at its next scheduling step
        and its run thread is joined before the pool goes: a thread left
        behind could still hold an import lock when another server in
        this process forks its workers, and a worker forked then would
        inherit the held lock and hang.
        """
        self._aborted = True
        if self._server is not None:
            self._server.close()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
        for task in list(self._clients) + list(self._notifiers):
            task.cancel()
        self._run_threads.shutdown(wait=True, cancel_futures=True)
        self.pool.close()
        if self.jobstore is not None:
            self.jobstore.close()

    def _cancel_job(self, job: Job) -> None:
        job.state = "cancelled"
        job.error = "server draining"
        job.http_status = 503
        job.finished = observe.clock()
        observe.add("serve.jobs.cancelled")
        self._emit(job, {"event": "cancelled", "reason": "server draining"})
        self.table.finish(job)
        job.done_event.set()

    # -- scheduling --------------------------------------------------------------

    async def _scheduler(self) -> None:
        while True:
            await self._work_available.wait()
            self._work_available.clear()
            while (self._running < self.config.runs and len(self.queue)
                   and not self._draining):
                job = self.queue.pop()
                if job is None or job.terminal:
                    continue
                self._running += 1
                self._idle.clear()
                job.state = "running"
                job.started = observe.clock()
                if self.jobstore is not None:
                    self.jobstore.started(job.request.request_key)
                observe.record("serve.queue_wait_s", job.queued_s or 0.0)
                self._emit(job, {"event": "running"})
                assert self._loop is not None
                future = self._loop.run_in_executor(
                    self._run_threads, self._execute_job, job)
                future.add_done_callback(
                    lambda f, job=job: self._job_finished(job, f))
            observe.gauge("serve.queue.depth", len(self.queue))
            observe.gauge("serve.jobs.running", self._running)

    def _emit(self, job: Job, event: dict[str, Any]) -> None:
        """Append a progress event (loop thread only) and wake streams."""
        event = {"t": observe.clock(), "job": job.job_id, **event}
        job.events.append(event)
        if self._aborted:
            return  # the loop is going away: no stream is left to wake

        async def _notify() -> None:
            async with job.events_cond:
                job.events_cond.notify_all()

        task = asyncio.ensure_future(_notify())
        self._notifiers.add(task)
        task.add_done_callback(self._notifiers.discard)

    def _emit_threadsafe(self, job: Job, event: dict[str, Any]) -> None:
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._emit, job, event)

    # -- job execution (run-pool threads) ----------------------------------------

    def _execute_job(self, job: Job) -> dict[str, Any]:
        """Run one job's DAG on the shared warm pool; returns the outcome."""
        request = job.request
        observe.add("serve.dag.runs")
        with observe.span("serve.job", job=job.job_id, tenant=job.tenant,
                          experiments=len(request.experiments)):
            graph = build_task_graph(
                list(request.experiments),
                solver_budget_s=request.solver_budget_s,
                solver_backend=(request.solver_backend
                                if request.solver_backend != "auto"
                                else self.config.solver_backend),
            )

            def on_task(result) -> None:
                self._emit_threadsafe(job, {
                    "event": "task",
                    "task": result.task_id,
                    "status": result.status,
                    "cache": result.cache,
                })

            results = run_graph(
                graph,
                store=self.store,
                config=ExecutorConfig(
                    jobs=self.config.jobs,
                    task_timeout_s=self.config.task_timeout_s,
                    retries=self.config.retries,
                ),
                on_task=on_task,
                should_stop=lambda: self._aborted,
                pool=self.pool,
            )
        rows = manifest_mod.experiment_records(graph, results)
        failures = sorted(r["experiment"] for r in rows
                          if r["status"] != "ok")
        return {"rows": rows, "failures": failures,
                "degraded": manifest_mod.degraded_tasks(results)}

    def _job_finished(self, job: Job, future) -> None:
        """Loop-side completion: finalize state, wake waiters."""
        if self._aborted:
            # A crashed server records nothing: the job store keeps the
            # job as admitted or running, for --resume.
            return
        self._running -= 1
        if self._running == 0:
            self._idle.set()
        self._work_available.set()
        job.finished = observe.clock()
        try:
            outcome = future.result()
        except Exception as error:  # noqa: BLE001 - fails closed as a 5xx
            logger.warning("job %s failed: %s", job.job_id, error)
            job.state = "failed"
            job.error = f"{type(error).__name__}: {error}"
            job.http_status = 500
            observe.add("serve.jobs.failed")
            self._emit(job, {"event": "failed", "error": job.error})
        else:
            if outcome["failures"]:
                # Fail closed: some experiment did not verify cleanly —
                # never serve a partial or unverified result set.
                job.state = "failed"
                job.error = (f"{len(outcome['failures'])} experiment(s) "
                             f"failed: {', '.join(outcome['failures'])}")
                job.http_status = 500
                observe.add("serve.jobs.failed")
                self._emit(job, {"event": "failed", "error": job.error})
            else:
                job.state = "done"
                # The response body is a pure function of the request
                # (rows are the deterministic results.jsonl records), so
                # every coalesced subscriber receives identical bytes.
                job.result = {
                    "request": job.request.canonical,
                    "results": outcome["rows"],
                    "degraded": outcome["degraded"],
                }
                observe.add("serve.jobs.done")
                self._emit(job, {"event": "done",
                                 "experiments": len(outcome["rows"]),
                                 "degraded": len(outcome["degraded"])})
        if job.queued_s is not None:
            observe.record("serve.request_latency_s",
                           job.finished - job.created)
        if self.jobstore is not None and job.state in ("done", "failed"):
            self.jobstore.finished(job.request.request_key, job.state,
                                   result=job.result, error=job.error,
                                   http_status=job.http_status)
        self.table.finish(job)
        job.done_event.set()

    # -- HTTP plumbing -----------------------------------------------------------

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
            task.add_done_callback(self._clients.discard)
        try:
            if faultplane.fire("serve.accept.drop"):
                return  # the finally clause closes the connection unread
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-conversation
        except asyncio.CancelledError:
            # Shutdown cancels the handlers still idle on a keep-alive
            # connection.  Ending cancelled would make the stream's
            # done-callback log a traceback (before Python 3.12), so a
            # shutdown's cancellation ends here, after the connection
            # is closed.
            if not (self._draining or self._aborted):
                raise
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while True:
            request = await self._read_request(reader, writer)
            if request is None:
                return
            if faultplane.fire("serve.read.drop"):
                return  # request parsed, then dropped without an answer
            span = observe.start_span("serve.request",
                                      method=request.method,
                                      path=request.path.split("?")[0])
            try:
                keep_alive = await self._dispatch(request, writer)
            except ProtocolError as error:
                self._write_error(writer, error.status, str(error))
                keep_alive = True
            except Exception as error:  # noqa: BLE001 - 500, never a stack dump
                logger.exception("request handler crashed")
                self._write_error(
                    writer, 500, f"{type(error).__name__}: {error}")
                keep_alive = False
            finally:
                observe.end_span(span)
            if faultplane.fire("serve.write.drop"):
                # The handler ran (the job may well be admitted and
                # running); the *response* is lost on the wire.  Abort
                # the transport so the client sees a reset, not a stall.
                transport = writer.transport
                if transport is not None:
                    transport.abort()
                return
            await writer.drain()
            if (not keep_alive
                    or request.headers.get("connection", "").lower() == "close"):
                return

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> _HttpRequest | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None  # clean EOF between requests
        except asyncio.LimitOverrunError:
            self._write_error(writer, 413, "request head too large")
            return None
        if len(head) > MAX_HEAD_BYTES:
            self._write_error(writer, 413, "request head too large")
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            self._write_error(writer, 400, f"malformed request line "
                                           f"{lines[0]!r}")
            return None
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                self._write_error(writer, 400,
                                  f"bad Content-Length {length!r}")
                return None
            if n > self.config.max_body:
                self._write_error(writer, 413,
                                  f"body of {n} bytes exceeds the "
                                  f"{self.config.max_body}-byte limit")
                # Swallow the oversized body (bounded) so the client can
                # read the rejection instead of hitting a broken pipe.
                remaining = min(n, 8 * self.config.max_body)
                while remaining > 0:
                    chunk = await reader.read(min(remaining, 1 << 16))
                    if not chunk:
                        break
                    remaining -= len(chunk)
                await writer.drain()
                return None
            body = await reader.readexactly(n)
        return _HttpRequest(method, path, headers, body)

    def _write(self, writer: asyncio.StreamWriter, status: int, body: bytes,
               extra: dict[str, str] | None = None) -> None:
        writer.write(_head(status, extra, length=len(body)) + body)

    def _write_error(self, writer: asyncio.StreamWriter, status: int,
                     message: str, extra: dict[str, str] | None = None) -> None:
        observe.add(f"serve.http.{status}")
        self._write(writer, status, _dump({"error": message}), extra)

    # -- routing -----------------------------------------------------------------

    async def _dispatch(self, request: _HttpRequest,
                        writer: asyncio.StreamWriter) -> bool:
        path = request.path.split("?")[0].rstrip("/") or "/"
        if path == "/healthz" and request.method == "GET":
            self._write(writer, 200, _dump(self._health()))
            return True
        if path == "/v1/metrics" and request.method == "GET":
            self._write(writer, 200, _dump(self._metrics()))
            return True
        if path in ("/v1/optimize", "/v1/sweep", "/v1/taskgraph"):
            if request.method != "POST":
                self._write_error(writer, 405,
                                  f"{path} accepts POST only",
                                  {"Allow": "POST"})
                return True
            return await self._handle_submit(request, writer,
                                             path.rsplit("/", 1)[1])
        if path.startswith("/v1/jobs/") and request.method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                return await self._handle_events(rest[:-len("/events")],
                                                 writer)
            return self._handle_job(rest, writer)
        self._write_error(writer, 404, f"no route for "
                                       f"{request.method} {path}")
        return True

    def _health(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "version": observe.repro_version(),
            "uptime_s": observe.clock() - self._started_at,
            "jobs": self.table.counts(),
            "running": self._running,
            "queue": {"depth": len(self.queue),
                      "max": self.config.max_queue,
                      "tenants": self.queue.depths()},
            "pool": {"jobs": self.config.jobs,
                     "pids": self.pool.worker_pids(),
                     "respawns": self.pool.respawns},
            "cache_dir": self.config.cache_dir,
        }

    def _metrics(self) -> dict[str, Any]:
        snap = observe.snapshot()
        counters = snap.get("counters", {})
        requests = counters.get("serve.requests", 0)
        deduped = (counters.get("serve.requests.coalesced", 0)
                   + counters.get("serve.requests.replayed", 0))
        hits = counters.get("cache.artifact.hits", 0)
        misses = counters.get("cache.artifact.misses", 0)
        derived = {
            "coalescing_ratio": (deduped / requests) if requests else 0.0,
            "inflight_coalesced": counters.get("serve.requests.coalesced", 0),
            "replayed": counters.get("serve.requests.replayed", 0),
            "dag_runs": counters.get("serve.dag.runs", 0),
            "cache_hit_rate": (hits / (hits + misses)
                               if (hits + misses) else None),
        }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(snap.get("gauges", {}).items())),
            "histograms": {
                name: observe.histogram_summary(hist)
                for name, hist in sorted(snap.get("histograms", {}).items())
            },
            "derived": derived,
        }

    async def _handle_submit(self, request: _HttpRequest,
                             writer: asyncio.StreamWriter,
                             endpoint: str) -> bool:
        parsed = protocol.parse_request(request.body, endpoint=endpoint,
                                        max_grid=self.config.max_grid)
        if self._draining:
            observe.add("serve.requests.drained")
            self._write_error(writer, 503, "server is draining",
                              {"Retry-After": str(self.config.retry_after_s)})
            return True
        job, disposition = self.table.submit(parsed)
        if disposition == "new":
            try:
                self.queue.push(parsed.tenant, parsed.cost, job)
            except QueueFull as error:
                # Undo the single-flight registration: the job never ran.
                self.table.inflight.pop(parsed.request_key, None)
                observe.add("serve.requests.rejected")
                self._write_error(
                    writer, 429, str(error),
                    {"Retry-After": str(self.config.retry_after_s)})
                return True
            if self.jobstore is not None:
                self.jobstore.admit(parsed.request_key, job.job_id,
                                    parsed.tenant, parsed.canonical)
            self._emit(job, {"event": "queued", "tenant": parsed.tenant})
            self._work_available.set()
        observe.gauge("serve.queue.depth", len(self.queue))

        if parsed.wait:
            await job.done_event.wait()
            self._write_job_outcome(writer, job)
            return True
        status = 200 if job.terminal else 202
        self._write(writer, status, _dump({
            "job": job.describe(),
            "disposition": disposition,
            "links": {"status": f"/v1/jobs/{job.job_id}",
                      "events": f"/v1/jobs/{job.job_id}/events"},
        }))
        return True

    def _write_job_outcome(self, writer: asyncio.StreamWriter,
                           job: Job) -> None:
        if job.state == "done":
            self._write(writer, 200, _dump(job.result))
        elif job.state == "cancelled":
            self._write_error(writer, job.http_status or 503,
                              job.error or "cancelled")
        else:
            self._write_error(writer, job.http_status or 500,
                              job.error or "job failed")

    def _handle_job(self, job_id: str, writer: asyncio.StreamWriter) -> bool:
        job = self.table.get(job_id)
        if job is None:
            self._write_error(writer, 404, f"unknown job {job_id!r}")
            return True
        document: dict[str, Any] = {"job": job.describe()}
        if job.state == "done":
            document["results"] = job.result["results"]
            document["degraded"] = job.result["degraded"]
        self._write(writer, 200, _dump(document))
        return True

    async def _handle_events(self, job_id: str,
                             writer: asyncio.StreamWriter) -> bool:
        job = self.table.get(job_id)
        if job is None:
            self._write_error(writer, 404, f"unknown job {job_id!r}")
            return True
        writer.write(_head(200, {"Connection": "close"}, chunked=True))
        sent = 0
        while True:
            while sent < len(job.events):
                data = _dump(job.events[sent])
                writer.write(f"{len(data):x}\r\n".encode("ascii")
                             + data + b"\r\n")
                sent += 1
            await writer.drain()
            if job.terminal:
                break
            async with job.events_cond:
                if sent >= len(job.events) and not job.terminal:
                    try:
                        await asyncio.wait_for(job.events_cond.wait(), 1.0)
                    except asyncio.TimeoutError:
                        pass  # re-check terminal state every second
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return False  # chunked stream ends the connection


async def _amain(server: ReproServer) -> int:
    await server.start()
    assert server.port is not None
    print(f"{protocol.LISTEN_PREFIX}{server.config.host}:"
          f"{server.port} (workers={server.config.jobs}, "
          f"runs={server.config.runs}, queue={server.config.max_queue})",
          flush=True)
    return await server.serve_until_stopped()


def run_server(config: ServeConfig) -> int:
    """Run a server until drained; returns the process exit code."""
    server = ReproServer(config)
    try:
        return asyncio.run(_amain(server))
    except KeyboardInterrupt:  # signal handler unavailable: best effort
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        server.pool.close()
        if server.jobstore is not None:
            server.jobstore.close()
