"""Content-addressed on-disk artifact store.

Layout::

    <root>/
      ab/
        ab3f...e1.json        # one JSON document per artifact
      quarantine/
        ab3f...e1.json        # corrupt documents, moved aside on read

Each document wraps its payload with the key it was stored under, the
store format version and a SHA-256 digest of the payload's canonical
JSON form, so a document moved, truncated or bit-flipped on disk is
detected on read — and **quarantined** (moved to ``quarantine/``) rather
than raised or silently served.  The next producer then recomputes and
rewrites the entry: corruption self-heals at the cost of one recompute.

Writes are atomic (temp file + ``os.replace`` in the same directory), so
concurrent workers — the sweep executor runs many — can race on the same
key and the store still ends up with exactly one intact document.

Each store handle keeps an in-memory LRU of the payloads its ``get`` has
read and verified, bounded by :data:`LRU_MAX_BYTES`.  An artifact never
changes under its content address, so a hit cannot be stale; a
long-lived ``repro serve`` reads each warm artifact from disk once.
Cached payloads are read-only (mutating one raises ``TypeError``), so no
consumer can change what a later hit returns.

:func:`verify_store` audits every document (``repro cache verify``).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import observe
from repro.errors import CacheError
from repro.lru import BoundedLRU
from repro.resilience import faultplane

logger = logging.getLogger("repro.cache")

#: Version of the on-disk envelope (not of the payloads inside it).
#: v2 added the embedded payload digest.
STORE_FORMAT = 2

#: Directory (under the store root) holding quarantined documents.
QUARANTINE_DIR = "quarantine"

#: Bound on one store handle's LRU of verified payloads, counted in
#: on-disk document bytes.  The paper suite's whole warm set (42
#: documents) takes about 0.1 MB of it.
LRU_MAX_BYTES = 16 << 20


def payload_digest(payload: Any) -> str:
    """SHA-256 over the payload's canonical JSON form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_only(self, *args: Any, **kwargs: Any) -> Any:
    raise TypeError("a cached artifact payload is read-only; copy it first")


class _FrozenDict(dict):
    """A dict whose mutators raise; pickles and copies as a plain dict."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


class _FrozenList(list):
    """A list whose mutators raise; pickles and copies as a plain list."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    def __reduce__(self):
        return list, (list(self),)


def read_only_copy(value: Any) -> Any:
    """A deep copy of a JSON value whose dicts and lists refuse mutation,
    for a value that many callers share."""
    if isinstance(value, dict):
        return _FrozenDict((key, read_only_copy(item))
                           for key, item in value.items())
    if isinstance(value, list):
        return _FrozenList(read_only_copy(item) for item in value)
    return value


#: Environment variable naming the default store root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Fallback store root (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass
class CacheStats:
    """Hit/miss accounting for one store handle."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0  # corrupt/mismatched documents treated as misses
    quarantined: int = 0  # invalid documents moved to quarantine/

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "invalid": self.invalid,
                "quarantined": self.quarantined}


@dataclass
class ArtifactStore:
    """A directory of content-addressed JSON artifacts.

    Args:
        root: store directory; created lazily on first write.
    """

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        self.lru = BoundedLRU(LRU_MAX_BYTES)

    # -- addressing -------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """On-disk location of a key (sharded by the first two hex chars)."""
        if len(key) < 8 or not all(c in "0123456789abcdef" for c in key):
            raise CacheError(f"malformed artifact key {key!r}")
        return self.root / key[:2] / f"{key}.json"

    # -- read/write -------------------------------------------------------------

    def _quarantine(self, path: Path) -> bool:
        """Move a corrupt document aside; fall back to deleting it.

        Either way the poisoned entry never crosses a ``get()`` again.
        """
        target = self.root / QUARANTINE_DIR / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                return False
        self.stats.quarantined += 1
        observe.add("cache.artifact.quarantined")
        logger.warning("quarantined corrupt artifact %s", path.name)
        return True

    def _inspect(self, path: Path, key: str) -> tuple[dict[str, Any] | None, str | None, int]:
        """(payload, problem, document length) for one on-disk document.

        Exactly one of payload and problem is None: a readable,
        digest-intact document yields its payload; anything else yields
        a problem description.
        """
        try:
            with open(path) as handle:
                text = handle.read()
            document = json.loads(text)
        except FileNotFoundError:
            raise
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            return None, f"unreadable document: {type(error).__name__}: {error}", 0
        size = len(text)
        if not isinstance(document, dict):
            return None, "document is not a JSON object", size
        if document.get("format") != STORE_FORMAT:
            return None, f"envelope format {document.get('format')!r} != {STORE_FORMAT}", size
        if document.get("key") != key:
            return None, f"embedded key {str(document.get('key'))[:12]}… != file key", size
        if "payload" not in document:
            return None, "document has no payload", size
        expected = document.get("digest")
        try:
            actual = payload_digest(document["payload"])
        except (TypeError, ValueError) as error:
            return None, f"payload not hashable: {error}", size
        if expected != actual:
            return None, f"payload digest mismatch (stored {str(expected)[:12]}…)", size
        return document["payload"], None, size

    def get(self, key: str) -> dict[str, Any] | None:
        """Payload stored under ``key``, or None (counted as a miss).

        A document that fails to parse, whose envelope does not match the
        key, or whose embedded payload digest does not verify is a miss,
        never an exception — a half-written, truncated or bit-flipped
        file must not take down a sweep.  Such documents are moved to
        ``quarantine/`` so the next ``put`` self-heals the entry and a
        postmortem can still inspect the bytes.

        A payload read before comes from the handle's LRU, read-only,
        unless a fault plan is active: then every read takes the disk
        path, so ``io.slow`` and ``cache.read.corrupt`` fire and are
        absorbed exactly as without the LRU.
        """
        path = self.path_for(key)
        if faultplane.active_plan() is None:
            payload = self.lru.get(key)
            if payload is not None:
                self.stats.hits += 1
                observe.add("cache.artifact.hits")
                observe.add("cache.artifact.lru_hits")
                return payload
        self.lru.discard(key)  # from here on, the disk decides
        faultplane.stall("io.slow")
        if path.is_file() and faultplane.fire("cache.read.corrupt"):
            # Genuinely damage the on-disk bytes so the real quarantine
            # and self-heal machinery below is what absorbs the fault.
            faultplane.damage_file(path)
        try:
            payload, problem, size = self._inspect(path, key)
        except FileNotFoundError:
            self.stats.misses += 1
            observe.add("cache.artifact.misses")
            return None
        if problem is not None:
            self.stats.misses += 1
            self.stats.invalid += 1
            observe.add("cache.artifact.misses")
            observe.add("cache.artifact.invalid")
            logger.warning("invalid artifact %s…: %s", key[:12], problem)
            self._quarantine(path)
            return None
        self.stats.hits += 1
        observe.add("cache.artifact.hits")
        payload = read_only_copy(payload)
        evicted = self.lru.put(key, payload, cost=size)
        if evicted:
            observe.add("cache.artifact.lru_evictions", evicted)
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> Path:
        """Atomically store ``payload`` under ``key``; returns its path."""
        path = self.path_for(key)
        self.lru.discard(key)
        document = {"format": STORE_FORMAT, "key": key,
                    "digest": payload_digest(payload), "payload": payload}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(document, handle)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as error:
            raise CacheError(f"cannot write artifact {key[:12]}…: {error}") from error
        faultplane.stall("io.slow")
        if faultplane.fire("cache.write.torn"):
            # Tear the freshly landed document; the next get() quarantines
            # it and the producer recomputes — the self-heal contract.
            faultplane.damage_file(path)
        self.stats.writes += 1
        observe.add("cache.artifact.writes")
        return path

    def contains(self, key: str) -> bool:
        """True when an intact document exists (does not touch stats)."""
        path = self.path_for(key)
        return path.is_file()

    # -- maintenance ------------------------------------------------------------

    def clear(self) -> int:
        """Delete every artifact (incl. quarantine); returns the count."""
        removed = 0
        self.lru.clear()
        if not self.root.is_dir():
            return 0
        for shard in self.root.iterdir():
            if not shard.is_dir():
                continue
            for entry in shard.glob("*.json"):
                entry.unlink(missing_ok=True)
                removed += 1
        return removed

    def iter_entries(self):
        """Yield (key, path) for every stored document (not quarantine)."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name == QUARANTINE_DIR:
                continue
            for entry in sorted(shard.glob("*.json")):
                yield entry.stem, entry

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_entries())


@dataclass
class StoreAudit:
    """Outcome of :func:`verify_store` (``repro cache verify``)."""

    root: Path
    scanned: int = 0
    intact: int = 0
    quarantined: int = 0
    problems: list[tuple[str, str]] = field(default_factory=list)  # (key, why)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def summary(self) -> str:
        if self.ok:
            return f"cache ok: {self.intact}/{self.scanned} documents intact ({self.root})"
        return (f"cache DEGRADED: {len(self.problems)} of {self.scanned} documents "
                f"corrupt, {self.quarantined} quarantined ({self.root})")


def verify_store(store: ArtifactStore, quarantine: bool = True) -> StoreAudit:
    """Audit every document in a store; optionally quarantine corruption.

    Unlike :meth:`ArtifactStore.get` this walks the whole store, so it
    also catches corruption in entries the current workload would never
    read.  Misplaced files (name that is not a plausible key) count as
    problems too.
    """
    audit = StoreAudit(root=store.root)
    for key, path in store.iter_entries():
        audit.scanned += 1
        try:
            store.path_for(key)
        except CacheError:
            audit.problems.append((key, "file name is not a valid artifact key"))
            if quarantine and store._quarantine(path):
                audit.quarantined += 1
            continue
        try:
            _, problem, _ = store._inspect(path, key)
        except FileNotFoundError:  # pragma: no cover - raced with a writer
            continue
        if problem is None:
            audit.intact += 1
            continue
        audit.problems.append((key, problem))
        if quarantine and store._quarantine(path):
            audit.quarantined += 1
    return audit


def default_store(root: str | Path | None = None) -> ArtifactStore:
    """The store at ``root``, ``$REPRO_CACHE_DIR``, or ``.repro-cache``."""
    if root is None:
        root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
    return ArtifactStore(root)
