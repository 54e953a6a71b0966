"""Crash-safe sweep journal: resumable progress on append-only JSONL.

A sweep writes one journal line per *completed* task — the task id plus
its full output payload and a digest of that payload — so that a run
killed at any instant (SIGINT, SIGKILL, power loss) can be restarted
with ``repro sweep --resume`` and skip everything that already finished.

Durability contract:

* the file starts with a **header** carrying a fingerprint of the sweep
  grid; resuming against a journal written for a different grid is an
  error, not a silent mix of incompatible results;
* every append is flushed and ``fsync``\\ ed before the executor moves
  on, so a journal line either exists completely or not at all — except
  for the final line of a crashed run, which may be **torn**;
* :meth:`SweepJournal.load_completed` therefore stops at the first
  unparsable line (appends are ordered, so everything before it is
  intact) and drops any entry whose payload digest does not verify;
* entries record the *output* of the task, so a resumed sweep replays
  them without recomputation and produces a byte-identical
  ``results.jsonl`` — the determinism contract survives the crash.

Degraded outputs (``_cacheable: false``, e.g. a fallback schedule from a
budget-starved solver) are deliberately **not** journaled by the sweep:
a resumed run gets a fresh chance at the exact answer.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Any, TextIO

from repro.errors import JournalError
from repro.resilience import faultplane

logger = logging.getLogger(__name__)


def payload_digest(payload: dict[str, Any]) -> str:
    """Canonical payload digest (lazy import: ``repro.runtime.sweep``
    imports this module, so a top-level import of ``repro.runtime.cache``
    would be circular whenever the journal is imported first)."""
    from repro.runtime.cache import payload_digest as digest

    return digest(payload)

#: On-disk journal format version.
JOURNAL_FORMAT = 1


def run_fingerprint(grid: dict[str, Any]) -> str:
    """Stable identity of a sweep grid (what a journal may resume)."""
    text = json.dumps(grid, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def dumps(record: dict[str, Any]) -> str:
    """One canonical journal line (without its newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class AppendLog:
    """The durable mechanics under the sweep journal and the job store.

    A header line pins ``FORMAT``; every append is flushed and
    ``fsync``\\ ed; reading stops at the first torn line; an injected
    torn write (``journal.torn``) disables further appends.  Subclasses
    own their record types and digests.
    """

    FORMAT = 0
    LABEL = "journal"  # what error and log messages call the file

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: TextIO | None = None
        self._broken = False

    # -- reading ---------------------------------------------------------------

    def _header(self) -> dict[str, Any] | None:
        """Parsed header line of an existing file, else None."""
        try:
            with open(self.path) as handle:
                first = handle.readline()
        except OSError:
            return None
        try:
            record = json.loads(first)
        except json.JSONDecodeError:
            return None
        if not isinstance(record, dict) or record.get("type") != "header":
            return None
        return record

    def _read(self) -> tuple[dict[str, Any], list[dict[str, Any]]] | None:
        """The header and every intact record after it.

        None when the file is missing or torn before its header landed.

        Raises:
            JournalError: the file was written in another format.
        """
        if not self.path.is_file():
            return None
        header = self._header()
        if header is None:
            return None
        if header.get("format") != self.FORMAT:
            raise JournalError(
                f"{self.LABEL} {self.path} has format "
                f"{header.get('format')!r}, this build writes {self.FORMAT}"
            )
        records: list[dict[str, Any]] = []
        with open(self.path) as handle:
            handle.readline()  # header, validated above
            for line in handle:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break  # torn tail of a crashed append; later bytes untrusted
                if isinstance(record, dict):
                    records.append(record)
        return header, records

    # -- writing ---------------------------------------------------------------

    def _open(self, append: bool, header: dict[str, Any] | None = None) -> None:
        """Open for appending (``append``) or truncate; then write
        ``header`` if given."""
        self._handle = open(self.path, "a" if append else "w")
        if header is not None:
            self._append({"type": "header", "format": self.FORMAT, **header})

    def _append(self, record: dict[str, Any]) -> None:
        if self._handle is None:
            raise JournalError(f"{self.LABEL} not started")
        if self._broken:
            return
        text = dumps(record) + "\n"
        torn = faultplane.torn_text(text)
        if torn is not None:
            # Simulated power loss mid-append: only a prefix reaches the
            # disk.  Appending after it would glue valid JSON onto the
            # torn line and make the reader drop everything that
            # follows, so the log fails safe: it stops recording (a
            # resume recomputes the lost tail).
            self._handle.write(torn)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._broken = True
            logger.warning(
                "%s %s: torn write injected; journaling disabled for this "
                "process (a resume recomputes the lost tail)",
                self.LABEL, self.path)
            return
        self._handle.write(text)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    @property
    def broken(self) -> bool:
        """True once an (injected) torn write disabled further appends."""
        return self._broken

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SweepJournal(AppendLog):
    """Append-only completion log for one sweep output directory.

    Args:
        path: journal file location (conventionally
            ``<output-dir>/journal.jsonl``).
        fingerprint: grid identity from :func:`run_fingerprint`; guards
            against resuming an unrelated sweep's journal.
    """

    FORMAT = JOURNAL_FORMAT
    LABEL = "sweep journal"

    def __init__(self, path: str | Path, fingerprint: str) -> None:
        super().__init__(path)
        self.fingerprint = fingerprint

    def load_completed(self) -> dict[str, dict[str, Any]]:
        """Outputs of every task the previous run durably finished.

        Raises:
            JournalError: the journal belongs to a different grid or a
                different journal format — resuming would silently mix
                incompatible results.
        """
        loaded = self._read()
        if loaded is None:
            return {}
        header, records = loaded
        if header.get("fingerprint") != self.fingerprint:
            raise JournalError(
                f"journal {self.path} was written for a different sweep grid "
                f"(fingerprint {str(header.get('fingerprint'))[:12]}… != "
                f"{self.fingerprint[:12]}…); use a fresh --output-dir or drop "
                f"--resume"
            )
        completed: dict[str, dict[str, Any]] = {}
        for record in records:
            if record.get("type") != "task":
                continue
            task_id = record.get("task")
            output = record.get("output")
            if not isinstance(task_id, str) or not isinstance(output, dict):
                continue
            if record.get("digest") != payload_digest(output):
                continue  # bit rot: cheaper to recompute than to trust
            completed[task_id] = output
        return completed

    def start(self, resume: bool = False) -> None:
        """Open the journal for appending.

        A fresh run (or a resume against a missing/header-less file)
        truncates and writes a new header; a resume against a validated
        journal appends after the existing entries.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append = resume and self._header() is not None
        self._open(append, None if append else {"fingerprint": self.fingerprint})

    def record(self, task_id: str, output: dict[str, Any]) -> None:
        """Durably note one finished task (flush + fsync before return)."""
        self._append({
            "type": "task",
            "task": task_id,
            "digest": payload_digest(output),
            "output": output,
        })
