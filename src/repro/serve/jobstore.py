"""Crash-safe job store: the serve-layer sibling of the sweep journal.

``repro serve`` (PR 7) kept every job in memory, so a server crash lost
queued and running work and forgot finished results.  The job store
records the life of every admitted job in an append-only JSONL journal
(``<store-dir>/jobs.jsonl``) on the sweep journal's mechanics
(:class:`repro.resilience.journal.AppendLog`):

* a **header** line pins the on-disk format version;
* an **admit** line carries the canonical request document (the exact
  bytes the request key was hashed from) plus a payload digest;
* a **start** line marks the job running; a **finish** line carries the
  terminal state and, for completed jobs, the full result body with its
  own digest;
* every append is flushed and ``fsync``\\ ed, so a record either exists
  completely or — for the final line of a crashed run — is **torn** and
  dropped by :meth:`JobStore.load`, never crashing recovery;
* a record whose digest does not verify is ignored: a dropped *finish*
  simply leaves the job queued, and re-running through the artifact
  cache is always safe.

On ``repro serve --resume`` the server loads the store, **compacts** it
(rewrites a fresh journal holding one admit per surviving job plus the
finish records of terminal ones, via tmpfile + ``os.replace``) so resume
chains do not grow the file without bound, then re-admits queued and
interrupted jobs and rehydrates finished ones for byte-identical replay.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import JournalError
from repro.resilience.journal import AppendLog, dumps, payload_digest

#: On-disk job-store format version.
JOBSTORE_FORMAT = 1

#: Job states a finish record may carry.
_TERMINAL = ("done", "failed")


@dataclass
class StoredJob:
    """One job as reconstructed from the journal."""

    key: str
    job_id: str
    tenant: str
    request: dict[str, Any]
    state: str = "queued"  # queued | running | done | failed
    result: dict[str, Any] | None = None
    error: str | None = None
    http_status: int = 200

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL


def _admit_digest(job_id: str, tenant: str, request: dict[str, Any]) -> str:
    return payload_digest({"job": job_id, "tenant": tenant, "request": request})


def _finish_digest(state: str, http_status: int, error: str | None,
                   result: dict[str, Any] | None) -> str:
    return payload_digest({
        "state": state,
        "http_status": http_status,
        "error": error,
        "result": result,
    })


class JobStore(AppendLog):
    """Append-only admission/start/finish journal for one store directory."""

    FORMAT = JOBSTORE_FORMAT
    LABEL = "job store"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        super().__init__(self.root / "jobs.jsonl")

    def load(self) -> dict[str, StoredJob]:
        """Every job the previous run durably admitted, keyed by request key.

        Torn-tail tolerant: reading stops at the first unparsable line.
        Records with a bad digest are skipped (for a finish record that
        means the job falls back to its pre-finish state and re-runs).

        Raises:
            JournalError: the journal was written by a different format
                version — resuming would silently misread records.
        """
        loaded = self._read()
        jobs: dict[str, StoredJob] = {}
        for record in loaded[1] if loaded is not None else ():
            self._apply(jobs, record)
        return jobs

    @staticmethod
    def _apply(jobs: dict[str, StoredJob], record: dict[str, Any]) -> None:
        kind = record.get("type")
        key = record.get("key")
        if not isinstance(key, str):
            return
        if kind == "admit":
            job_id = record.get("job")
            tenant = record.get("tenant")
            request = record.get("request")
            if not isinstance(job_id, str) or not isinstance(tenant, str):
                return
            if not isinstance(request, dict):
                return
            if record.get("digest") != _admit_digest(job_id, tenant, request):
                return  # bit rot in the admission record: unrecoverable job
            jobs[key] = StoredJob(key=key, job_id=job_id, tenant=tenant,
                                  request=request)
        elif kind == "start":
            job = jobs.get(key)
            if job is not None and job.state == "queued":
                job.state = "running"
        elif kind == "finish":
            job = jobs.get(key)
            state = record.get("state")
            if job is None or state not in _TERMINAL:
                return
            http_status = record.get("http_status")
            error = record.get("error")
            result = record.get("result")
            if not isinstance(http_status, int):
                return
            if error is not None and not isinstance(error, str):
                return
            if result is not None and not isinstance(result, dict):
                return
            if record.get("digest") != _finish_digest(state, http_status,
                                                      error, result):
                return  # drop the finish; the job re-runs through the cache
            job.state = state
            job.http_status = http_status
            job.error = error
            job.result = result

    # -- writing ---------------------------------------------------------------

    def start(self, resume: bool = False,
              recovered: dict[str, StoredJob] | None = None) -> None:
        """Open the journal for appending.

        A fresh run truncates and writes a new header.  A resume
        compacts: the surviving state (``recovered``, or a fresh
        :meth:`load` if not supplied) is rewritten as a new journal —
        one admit per job, plus a finish for terminal ones — atomically
        replacing the old file, then opened for appends.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if resume:
            if recovered is None:
                recovered = self.load()
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".jobs-",
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(dumps({"type": "header",
                                        "format": self.FORMAT}) + "\n")
                    for job in recovered.values():
                        handle.write(dumps(self._admit_record(
                            job.key, job.job_id, job.tenant, job.request)) + "\n")
                        if job.terminal:
                            handle.write(dumps(self._finish_record(
                                job.key, job.state, job.http_status,
                                job.error, job.result)) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._open(append=True)
        else:
            self._open(append=False, header={})

    def admit(self, key: str, job_id: str, tenant: str,
              request: dict[str, Any]) -> None:
        """Durably record an admitted job (flush + fsync before return)."""
        self._append(self._admit_record(key, job_id, tenant, request))

    def started(self, key: str) -> None:
        self._append({"type": "start", "key": key})

    def finished(self, key: str, state: str, result: dict[str, Any] | None = None,
                 error: str | None = None, http_status: int = 200) -> None:
        if state not in _TERMINAL:
            raise JournalError(f"finish state must be one of {_TERMINAL}, "
                               f"got {state!r}")
        self._append(self._finish_record(key, state, http_status, error, result))

    @staticmethod
    def _admit_record(key: str, job_id: str, tenant: str,
                      request: dict[str, Any]) -> dict[str, Any]:
        return {
            "type": "admit",
            "key": key,
            "job": job_id,
            "tenant": tenant,
            "request": request,
            "digest": _admit_digest(job_id, tenant, request),
        }

    @staticmethod
    def _finish_record(key: str, state: str, http_status: int,
                       error: str | None,
                       result: dict[str, Any] | None) -> dict[str, Any]:
        return {
            "type": "finish",
            "key": key,
            "state": state,
            "http_status": http_status,
            "error": error,
            "result": result,
            "digest": _finish_digest(state, http_status, error, result),
        }


__all__ = ["JOBSTORE_FORMAT", "JobStore", "StoredJob"]
