"""repro.observe — zero-dependency tracing, metrics, and profiling.

The package's one timing mechanism.  Hierarchical spans (wall + CPU
time, attributes, point events), typed counters/gauges/histograms, a
no-op fast path when disabled, per-process collection with cross-pool
merge, and ``trace.jsonl``/``metrics.json`` export.

Quick use::

    from repro import observe

    with observe.span("solver.solve", backend="native") as sp:
        ...
    manifest["wall_time_s"] = sp.elapsed_s   # works traced or not

    observe.add("solver.revised.pivots")
    observe.record("executor.queue_wait_s", wait)

    @observe.traced()
    def hot(): ...

See ``docs/observability.md`` for the span/metric model and file
formats.
"""

from .core import (
    SNAPSHOT_FORMAT,
    TRACE_ENV,
    Histogram,
    Span,
    absorb,
    add,
    clock,
    counter_value,
    cpu_clock,
    current_span_id,
    disable,
    enable,
    enabled,
    end_span,
    env_enabled,
    event,
    gauge,
    record,
    reset,
    snapshot,
    span,
    start_span,
    traced,
)
from .export import (
    FILE_FORMAT,
    METRICS_NAME,
    TRACE_NAME,
    export,
    histogram_summary,
    host_fingerprint,
    read_metrics,
    read_trace,
    repro_version,
    write_metrics,
    write_trace,
)
from .logs import LOG_ENV, configure_logging, resolve_level

__all__ = [
    "SNAPSHOT_FORMAT", "TRACE_ENV", "Histogram", "Span",
    "absorb", "add", "clock", "counter_value", "cpu_clock",
    "current_span_id", "disable", "enable", "enabled", "end_span",
    "env_enabled", "event", "gauge", "record", "reset", "snapshot",
    "span", "start_span", "traced",
    "FILE_FORMAT", "METRICS_NAME", "TRACE_NAME", "export",
    "histogram_summary", "host_fingerprint", "read_metrics", "read_trace",
    "repro_version",
    "write_metrics", "write_trace",
    "LOG_ENV", "configure_logging", "resolve_level",
]
