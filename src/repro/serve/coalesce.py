"""Single-flight request coalescing.

Identical requests — same canonical document, hence same request key —
must cost one DAG run no matter how many clients submit them:

* a duplicate of a **queued or running** job joins it (the in-flight
  single-flight map), and every subscriber gets the same response;
* a duplicate of a **recently finished** job replays the stored
  response from a bounded LRU without touching the queue at all;
* only a genuinely novel request creates a job and enters the queue.

This sits *above* the artifact cache: the cache dedupes stage artifacts
across time, the single-flight map dedupes whole in-flight runs across
concurrent clients.  Counters: ``serve.requests`` (all submissions),
``serve.requests.coalesced`` (joined in flight), ``serve.requests.replayed``
(LRU hits), ``serve.dag.runs`` (actual executions).
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro import observe
from repro.serve.protocol import ParsedRequest

#: Entry bound of the finished-job LRU.
DONE_CAPACITY = 256

#: Byte budget of the finished-job LRU (canonical JSON bytes of the
#: stored response bodies).  Large sweep responses evict early so the
#: LRU cannot grow without bound even at a small entry count.
DONE_MAX_BYTES = 64 * 1024 * 1024


def _result_bytes(result: dict[str, Any] | None) -> int:
    if result is None:
        return 0
    try:
        return len(json.dumps(result, sort_keys=True, separators=(",", ":")))
    except (TypeError, ValueError):
        return 0

#: Job lifecycle states.
STATES = ("queued", "running", "done", "failed", "cancelled")

#: States in which a job has a final answer.
TERMINAL = ("done", "failed", "cancelled")


@dataclass
class Job:
    """One coalesced unit of work: a canonical request and its outcome."""

    request: ParsedRequest
    state: str = "queued"
    created: float = field(default_factory=observe.clock)
    started: float | None = None
    finished: float | None = None
    submissions: int = 1  # clients that asked for this job
    events: list[dict[str, Any]] = field(default_factory=list)
    result: dict[str, Any] | None = None  # response body when done
    result_bytes: int = 0  # canonical JSON size of result, set on finish
    error: str | None = None
    http_status: int = 200
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    events_cond: asyncio.Condition = field(default_factory=asyncio.Condition)

    @property
    def job_id(self) -> str:
        return self.request.job_id

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    @property
    def queued_s(self) -> float | None:
        if self.started is None:
            return None
        return self.started - self.created

    @property
    def run_s(self) -> float | None:
        if self.started is None or self.finished is None:
            return None
        return self.finished - self.started

    def describe(self) -> dict[str, Any]:
        """The ``job`` object embedded in every response."""
        record: dict[str, Any] = {
            "id": self.job_id,
            "state": self.state,
            "tenant": self.tenant,
            "submissions": self.submissions,
            "experiments": len(self.request.experiments),
            "events": len(self.events),
        }
        if self.queued_s is not None:
            record["queued_s"] = self.queued_s
        if self.run_s is not None:
            record["run_s"] = self.run_s
        if self.error is not None:
            record["error"] = self.error
        return record


class JobTable:
    """The single-flight map plus a bounded LRU of finished jobs.

    The LRU is bounded twice over: by entry count (:data:`DONE_CAPACITY`)
    and by the canonical JSON bytes of the stored response bodies
    (:data:`DONE_MAX_BYTES`), whichever bites first.  Evictions bump
    ``serve.coalesce.evictions``; the current payload total is the
    ``serve.coalesce.bytes`` gauge.
    """

    def __init__(self) -> None:
        self.inflight: dict[str, Job] = {}  # request key -> queued/running
        self.done: OrderedDict[str, Job] = OrderedDict()  # LRU, newest last
        self.done_bytes = 0

    def get(self, job_id: str) -> Job | None:
        """Look a job up by its public id (inflight first, then LRU)."""
        for job in self.inflight.values():
            if job.job_id == job_id:
                return job
        for job in self.done.values():
            if job.job_id == job_id:
                return job
        return None

    def submit(self, request: ParsedRequest) -> tuple[Job, str]:
        """Route one submission; returns ``(job, disposition)``.

        Disposition is ``"new"`` (caller must enqueue the job),
        ``"coalesced"`` (joined a queued/running job) or ``"replayed"``
        (served from the finished-job LRU).
        """
        observe.add("serve.requests")
        job = self.inflight.get(request.request_key)
        if job is not None:
            job.submissions += 1
            observe.add("serve.requests.coalesced")
            return job, "coalesced"
        job = self.done.get(request.request_key)
        if job is not None:
            self.done.move_to_end(request.request_key)
            job.submissions += 1
            observe.add("serve.requests.replayed")
            return job, "replayed"
        job = Job(request=request)
        self.inflight[request.request_key] = job
        return job, "new"

    def finish(self, job: Job) -> None:
        """Move a terminal job from the in-flight map into the LRU."""
        self.inflight.pop(job.request.request_key, None)
        # Cancelled jobs carry no reusable answer; do not replay them.
        if job.state == "cancelled":
            return
        self._admit_done(job)

    def rehydrate(self, job: Job) -> None:
        """Insert a terminal job recovered from the job store."""
        self._admit_done(job)

    def _admit_done(self, job: Job) -> None:
        key = job.request.request_key
        previous = self.done.pop(key, None)
        if previous is not None:
            self.done_bytes -= previous.result_bytes
        job.result_bytes = _result_bytes(job.result)
        self.done[key] = job
        self.done_bytes += job.result_bytes
        while self.done and (len(self.done) > DONE_CAPACITY
                             or self.done_bytes > DONE_MAX_BYTES):
            _, evicted = self.done.popitem(last=False)
            self.done_bytes -= evicted.result_bytes
            observe.add("serve.coalesce.evictions")
        observe.gauge("serve.coalesce.bytes", self.done_bytes)

    def counts(self) -> dict[str, int]:
        states = {"queued": 0, "running": 0}
        for job in self.inflight.values():
            states[job.state] = states.get(job.state, 0) + 1
        states["done"] = sum(1 for j in self.done.values()
                             if j.state == "done")
        states["failed"] = sum(1 for j in self.done.values()
                               if j.state == "failed")
        return states
