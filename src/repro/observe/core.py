"""The per-process observability collector: spans, counters, histograms.

This module is deliberately dependency-free (stdlib only) and import-safe
from anywhere in the package — the hot paths it instruments (the simplex
pivot loop, the simulator) must never pay for an import cycle or a heavy
dependency.

Design contract:

* **Off by default, cheap when off.**  Every recording call starts with
  one flag test.  :func:`span` still *measures* when disabled (callers
  such as the executor use ``Span.elapsed_s`` as the one timing
  mechanism for manifest fields), but records nothing.
* **One clock.**  :data:`clock` (``time.perf_counter``) is the package's
  only wall-clock source; :data:`cpu_clock` (``time.process_time``) its
  only CPU-time source.  Nothing outside :mod:`repro.observe` calls
  ``time.perf_counter`` directly.
* **Per-process state.**  Worker processes collect into their own
  instance and ship a :func:`snapshot` back over the pool; the parent
  :func:`absorb`\\ s it.  Span parents cross process boundaries by
  explicit ``parent_id`` (the executor passes its task span's id into
  the worker payload).
* **Never perturbs results.**  The collector only observes; enabling it
  must not change any computed value (tested: ``results.jsonl`` is
  byte-identical with tracing on and off).
"""

from __future__ import annotations

import itertools
import math
import os
import random
import threading
import time
from typing import Any, Callable, Iterable

#: The package's wall clock (monotonic, high resolution).  All timing in
#: repro — span durations, solver deadlines, budgets — reads this.
clock = time.perf_counter

#: The package's CPU clock (process CPU seconds).
cpu_clock = time.process_time

#: Snapshot format version (bumped with incompatible layout changes).
SNAPSHOT_FORMAT = 1

_seq = itertools.count(1)


class Span:
    """One timed region: wall + CPU time, attributes, events, a parent.

    Spans always measure (``elapsed_s`` works whether or not tracing is
    enabled); they are only *recorded* into the collector when tracing
    was enabled at creation time.
    """

    __slots__ = ("name", "span_id", "parent_id", "attrs", "events",
                 "t0", "t1", "cpu0", "cpu1", "pid", "_recorded", "_on_stack")

    def __init__(self, name: str, span_id: str, parent_id: str | None,
                 attrs: dict[str, Any], recorded: bool, on_stack: bool) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.events: list[dict[str, Any]] = []
        self.pid = os.getpid()
        self._recorded = recorded
        self._on_stack = on_stack
        self.cpu0 = cpu_clock()
        self.t0 = clock()
        self.t1: float | None = None
        self.cpu1: float | None = None

    @property
    def elapsed_s(self) -> float:
        """Wall seconds so far (final once the span has ended)."""
        return (self.t1 if self.t1 is not None else clock()) - self.t0

    @property
    def cpu_s(self) -> float:
        """CPU seconds so far (final once the span has ended)."""
        return (self.cpu1 if self.cpu1 is not None else cpu_clock()) - self.cpu0

    def set(self, **attrs: Any) -> None:
        """Attach or update attributes."""
        self.attrs.update(attrs)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready record (the ``trace.jsonl`` line body)."""
        record: dict[str, Any] = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "pid": self.pid,
            "t0": self.t0,
            "t1": self.t1 if self.t1 is not None else self.t0,
            "wall_s": self.elapsed_s,
            "cpu_s": self.cpu_s,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if self.events:
            record["events"] = self.events
        return record

    # Context-manager protocol: `with observe.span(...) as sp:`
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self._recorded:
            self.attrs.setdefault("error", exc_type.__name__)
        end_span(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.elapsed_s * 1e3:.3f} ms)"


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100]; 0.0 if empty).

    The rank is ``ceil(q * N / 100)`` computed as a single product
    before the division: dividing first (``q / 100.0 * N``) rounds
    q/100 to binary float and the representation error then crosses
    integer boundaries — e.g. ``0.55 * 20`` is ``11.000000000000002``
    whose ceiling is 12, one rank too high.  ``q * N / 100.0`` stays
    exact for every integer-valued product.  Out-of-range q clamps
    to the extreme samples rather than indexing out of bounds.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


class Histogram:
    """Count/sum/min/max/percentile summary of an observed value stream.

    Percentiles (p50/p90/p99) come from a bounded reservoir sample of
    :data:`RESERVOIR` values: exact below that many observations,
    an unbiased estimate above it.  The reservoir RNG is seeded per
    histogram, so a given observation sequence always yields the same
    sample — metrics stay reproducible for deterministic runs.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "samples", "_rng")

    #: Reservoir capacity; percentiles are exact up to this many values.
    RESERVOIR = 2048

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.samples: list[float] = []
        self._rng = random.Random(0x5EED)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self.samples) < self.RESERVOIR:
            self.samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.RESERVOIR:
                self.samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the reservoir (q in [0, 100])."""
        return percentile(self.samples, q)

    def as_dict(self) -> dict[str, Any]:
        document = {"count": self.count, "sum": self.total,
                    "min": self.minimum if self.count else 0.0,
                    "max": self.maximum if self.count else 0.0,
                    "mean": self.mean}
        if self.samples:
            document["p50"] = self.percentile(50.0)
            document["p90"] = self.percentile(90.0)
            document["p99"] = self.percentile(99.0)
        # Transport-only: cross-process merges need the raw reservoir;
        # the metrics.json writer strips this key.
        document["samples"] = list(self.samples)
        return document

    def merge_dict(self, other: dict[str, Any]) -> None:
        """Fold a serialized histogram (another process's) into this one."""
        count = int(other.get("count", 0))
        if not count:
            return
        had = self.count > 0
        self.count += count
        self.total += float(other.get("sum", 0.0))
        self.minimum = min(self.minimum, float(other["min"])) if had else float(other["min"])
        self.maximum = max(self.maximum, float(other["max"])) if had else float(other["max"])
        for value in other.get("samples", ()):
            if len(self.samples) < self.RESERVOIR:
                self.samples.append(float(value))
            else:
                slot = self._rng.randrange(self.count)
                if slot < self.RESERVOIR:
                    self.samples[slot] = float(value)


class _Collector:
    """All per-process observability state."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict[str, Any]] = []  # finished spans, as dicts
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.lock = threading.Lock()
        self.local = threading.local()  # .stack: list[Span]

    def stack(self) -> list[Span]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack


_COLLECTOR = _Collector()
#: Gauges set by :func:`process_gauge` (``process.import_s``).
_PROCESS_GAUGES: dict[str, float] = {}

#: Environment variable that enables tracing for the whole process.
TRACE_ENV = "REPRO_TRACE"


def enabled() -> bool:
    """True when the collector is recording."""
    return _COLLECTOR.enabled


def enable(reset: bool = False) -> None:
    """Turn recording on (optionally wiping previously collected data)."""
    if reset:
        _reset_data()
    _COLLECTOR.enabled = True


def disable() -> None:
    """Turn recording off (collected data is kept until :func:`reset`)."""
    _COLLECTOR.enabled = False


def _reset_data() -> None:
    with _COLLECTOR.lock:
        _COLLECTOR.spans.clear()
        _COLLECTOR.counters.clear()
        _COLLECTOR.gauges.clear()
        _COLLECTOR.histograms.clear()
    _COLLECTOR.local.stack = []


def reset() -> None:
    """Wipe all collected spans and metrics (and the span stack).

    Worker processes call this at task start: a fork-started pool
    inherits the parent's collector state, which must not leak into the
    task's own snapshot.
    """
    _reset_data()


def env_enabled() -> bool:
    """True when ``$REPRO_TRACE`` requests tracing."""
    return os.environ.get(TRACE_ENV, "").lower() in ("1", "true", "on", "yes")


# -- spans ------------------------------------------------------------------------


def _new_span_id() -> str:
    return f"{os.getpid():x}-{next(_seq)}"


def current_span_id() -> str | None:
    """Id of the innermost open span on this thread, or None."""
    stack = _COLLECTOR.stack()
    return stack[-1].span_id if stack else None


def start_span(name: str, parent_id: str | None = None,
               on_stack: bool = False, **attrs: Any) -> Span:
    """Begin a span explicitly (end with :func:`end_span`).

    Args:
        name: span name; keep the cardinality low (``"executor.task"``,
            not one name per task) so ``trace summarize`` can aggregate.
            Identify instances via ``attrs``.
        parent_id: explicit parent span id; defaults to the innermost
            open span on this thread.  Cross-process parents (the
            executor's task span, passed into a worker) go here.
        on_stack: push the span onto this thread's stack so spans opened
            inside it become its children.  Only for spans whose
            lifetime nests properly on one thread; the executor's
            overlapping per-task spans stay off the stack.
        **attrs: initial attributes.

    Returns:
        a :class:`Span`; always usable for timing, recorded only when
        tracing is enabled.
    """
    recorded = _COLLECTOR.enabled
    if not recorded:
        return Span(name, "", None, attrs, recorded=False, on_stack=False)
    if parent_id is None:
        parent_id = current_span_id()
    span = Span(name, _new_span_id(), parent_id, attrs,
                recorded=True, on_stack=on_stack)
    if on_stack:
        _COLLECTOR.stack().append(span)
    return span


def end_span(span: Span, **attrs: Any) -> Span:
    """Finish a span (idempotent); records it if tracing was on at start."""
    if span.t1 is not None:
        return span
    span.cpu1 = cpu_clock()
    span.t1 = clock()
    if attrs:
        span.attrs.update(attrs)
    if span._recorded:
        if span._on_stack:
            stack = _COLLECTOR.stack()
            if stack and stack[-1] is span:
                stack.pop()
            elif span in stack:  # pragma: no cover - unbalanced exit
                stack.remove(span)
        with _COLLECTOR.lock:
            _COLLECTOR.spans.append(span.as_dict())
    return span


def span(name: str, parent_id: str | None = None, **attrs: Any) -> Span:
    """Context-managed span, pushed on this thread's stack::

        with observe.span("solver.solve", backend="native") as sp:
            ...
        wall = sp.elapsed_s      # valid whether or not tracing is on
    """
    return start_span(name, parent_id=parent_id, on_stack=True, **attrs)


def traced(name: str | None = None, **attrs: Any) -> Callable:
    """Decorator form of :func:`span` (span named after the function)::

        @observe.traced()
        def expensive(): ...
    """
    def decorate(fn: Callable) -> Callable:
        span_name = name or f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"

        def wrapper(*args: Any, **kwargs: Any):
            if not _COLLECTOR.enabled:
                return fn(*args, **kwargs)
            with span(span_name, **attrs):
                return fn(*args, **kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    return decorate


def event(name: str, **attrs: Any) -> None:
    """Attach a timestamped event to the innermost open span.

    Used for point-in-time observations inside a long operation, e.g.
    each new branch-and-bound incumbent with its gap.  A no-op when
    tracing is off or no span is open.
    """
    if not _COLLECTOR.enabled:
        return
    stack = _COLLECTOR.stack()
    if not stack:
        return
    record: dict[str, Any] = {"name": name, "t": clock()}
    if attrs:
        record["attrs"] = attrs
    stack[-1].events.append(record)


# -- metrics ----------------------------------------------------------------------


def add(name: str, value: float = 1) -> None:
    """Increment a counter (no-op when tracing is off)."""
    if not _COLLECTOR.enabled:
        return
    with _COLLECTOR.lock:
        _COLLECTOR.counters[name] = _COLLECTOR.counters.get(name, 0) + value


def gauge(name: str, value: float) -> None:
    """Set a gauge to its latest value (no-op when tracing is off)."""
    if not _COLLECTOR.enabled:
        return
    with _COLLECTOR.lock:
        _COLLECTOR.gauges[name] = value


def process_gauge(name: str, value: float) -> None:
    """Set a gauge that describes this process's start-up (recorded
    whether or not tracing is on yet, and kept across resets), so every
    snapshot the process takes carries it."""
    _PROCESS_GAUGES[name] = value


def record(name: str, value: float) -> None:
    """Observe one value into a histogram (no-op when tracing is off)."""
    if not _COLLECTOR.enabled:
        return
    with _COLLECTOR.lock:
        hist = _COLLECTOR.histograms.get(name)
        if hist is None:
            hist = _COLLECTOR.histograms[name] = Histogram()
        hist.observe(value)


def counter_value(name: str) -> float:
    """Current value of a counter (0 when never incremented)."""
    return _COLLECTOR.counters.get(name, 0)


# -- snapshot / merge -------------------------------------------------------------


def snapshot(reset: bool = False) -> dict[str, Any]:
    """All collected data as one JSON-ready dict (optionally wiping it).

    Workers ship this back to the pool parent; :func:`repro.observe.export`
    writes it to ``trace.jsonl`` + ``metrics.json``.
    """
    with _COLLECTOR.lock:
        snap = {
            "format": SNAPSHOT_FORMAT,
            "pid": os.getpid(),
            "spans": list(_COLLECTOR.spans),
            "counters": dict(_COLLECTOR.counters),
            "gauges": {**_PROCESS_GAUGES, **_COLLECTOR.gauges},
            "histograms": {name: h.as_dict()
                           for name, h in _COLLECTOR.histograms.items()},
        }
    if reset:
        _reset_data()
    return snap


def absorb(snap: dict[str, Any] | None) -> None:
    """Merge another process's :func:`snapshot` into this collector.

    Counters and histograms accumulate; gauges take the absorbed value
    (last writer wins); spans are appended verbatim — their parent links
    were established at creation time and survive the merge.
    """
    if not snap:
        return
    with _COLLECTOR.lock:
        _COLLECTOR.spans.extend(snap.get("spans", ()))
        for name, value in snap.get("counters", {}).items():
            _COLLECTOR.counters[name] = _COLLECTOR.counters.get(name, 0) + value
        _COLLECTOR.gauges.update(snap.get("gauges", {}))
        for name, data in snap.get("histograms", {}).items():
            hist = _COLLECTOR.histograms.get(name)
            if hist is None:
                hist = _COLLECTOR.histograms[name] = Histogram()
            hist.merge_dict(data)
