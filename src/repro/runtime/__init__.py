"""Experiment orchestration: parallel sweeps with artifact memoization.

The paper's evaluation is a cross-product — benchmarks × input
categories × deadlines × mode tables — of experiments that are
individually expensive (one simulation per mode just to profile) and
mutually independent.  This package turns that shape into throughput:

* :mod:`repro.runtime.dag` — each grid point is a small task DAG
  (``profile -> optimize -> simulate -> verify``); sweeps merge DAGs
  and deduplicate shared stages.
* :mod:`repro.runtime.executor` — a ``ProcessPoolExecutor`` scheduler
  with per-task timeouts, bounded retries with backoff, fault injection
  and graceful degradation (one failed grid point never stops a sweep).
* :mod:`repro.runtime.hashing` / :mod:`repro.runtime.cache` — expensive
  artifacts (profiles, MILP schedules, simulated runs) are memoized in
  a content-addressed on-disk store keyed by source text, inputs,
  machine configuration and format version; the CLI and the benchmark
  suite share the same entries.
* :mod:`repro.runtime.manifest` — every run emits an operational JSONL
  manifest (timings, cache traffic, retries, solver stats) plus a
  deterministic ``results.jsonl`` that is byte-identical across job
  counts and cache states.
* :mod:`repro.runtime.sweep` — the grid driver behind ``repro sweep``.

Quickstart::

    from repro.runtime import SweepConfig, run_sweep

    report = run_sweep(SweepConfig(
        workloads=("adpcm", "gsm"),
        deadline_fracs=(0.35, 0.7),
        jobs=4,
        cache_dir=".repro-cache",
        output_dir="sweep-results",
    ))
    assert report.ok, report.failures
"""

from repro.runtime.cache import ArtifactStore, CacheStats, default_store
from repro.runtime.dag import (
    ExperimentSpec,
    MachineSpec,
    Task,
    TaskGraph,
    build_task_graph,
    execute_task,
)
from repro.runtime.executor import (
    ExecutorConfig,
    TaskResult,
    run_graph,
)
from repro.runtime.hashing import (
    artifact_key,
    canonical_json,
    machine_fingerprint,
    profile_key,
    run_summary_key,
    schedule_key,
    stable_hash,
    workload_fingerprint,
)
from repro.runtime.sweep import SweepConfig, SweepReport, build_grid, run_sweep

__all__ = [
    "ArtifactStore",
    "CacheStats",
    "ExecutorConfig",
    "ExperimentSpec",
    "MachineSpec",
    "SweepConfig",
    "SweepReport",
    "Task",
    "TaskGraph",
    "TaskResult",
    "artifact_key",
    "build_grid",
    "build_task_graph",
    "canonical_json",
    "default_store",
    "execute_task",
    "machine_fingerprint",
    "profile_key",
    "run_graph",
    "run_summary_key",
    "run_sweep",
    "schedule_key",
    "stable_hash",
    "workload_fingerprint",
]
