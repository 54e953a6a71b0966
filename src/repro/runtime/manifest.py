"""JSONL manifests and deterministic result records for sweeps.

A sweep emits two files:

* ``manifest.jsonl`` — the *operational* log: a header describing the
  run, one record per task (status, wall time, cache hit/miss, attempt
  count, solver stats) and a summary footer with aggregate counters.
  Wall-clock fields make this file inherently timing-dependent.
* ``results.jsonl`` — the *scientific* record: one line per experiment,
  sorted by experiment id, holding only run-invariant quantities
  (deadlines, predicted/measured energies, verification verdicts, cache
  keys).  Two sweeps over the same grid produce **byte-identical**
  results files regardless of ``--jobs``, cache temperature or machine
  load — this is the file the determinism tests diff.

Records are JSON with sorted keys and fixed separators so byte equality
is meaningful.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from repro.runtime.dag import Experiment, TaskGraph
from repro.runtime.executor import TaskResult

#: Fields of a task record that vary run to run; scrub these before
#: comparing manifests across runs.  Under a solver budget the fallback
#: tier and optimality gap depend on wall-clock luck, so they live here
#: (and in the manifest) — never in ``results.jsonl``.
TIMING_FIELDS = ("wall_time_s", "solver_time_s", "fallback_tier",
                 "optimality_gap", "degraded", "solver_method")

#: Manifest field <- field of a solve task's ``solver`` stats, copied
#: when the task reports it (each family reports its own subset).
_SOLVER_FIELDS = {
    "solver_status": "status",
    "solver_time_s": "solve_time_s",
    "solver_method": "method",
    "num_independent_edges": "num_independent_edges",
    "fallback_tier": "fallback_tier",
    "optimality_gap": "optimality_gap",
    "degraded": "degraded",
}


def _dump(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def task_record(result: TaskResult) -> dict[str, Any]:
    """Manifest line for one finished task."""
    record: dict[str, Any] = {
        "type": "task",
        "task": result.task_id,
        "kind": result.kind,
        "status": result.status,
        "cache": result.cache,
        "attempts": result.attempts,
        "retries": max(0, result.attempts - 1),
        "wall_time_s": result.wall_time_s,
        "experiments": sorted(result.experiments),
    }
    if result.error is not None:
        record["error"] = result.error
        record["error_type"] = result.error_type
    if result.warnings:
        record["warnings"] = list(result.warnings)
    solver = (result.output or {}).get("solver")
    if solver is not None:
        record.update({field: solver[name]
                       for field, name in _SOLVER_FIELDS.items()
                       if name in solver})
    return record


def summary_record(results: dict[str, TaskResult],
                   wall_time_s: float | None = None) -> dict[str, Any]:
    """Aggregate footer: task statuses and cache traffic."""
    statuses = {"ok": 0, "failed": 0, "skipped": 0}
    cache = {"hit": 0, "miss": 0, "off": 0, "journal": 0}
    retries = 0
    for result in results.values():
        statuses[result.status] = statuses.get(result.status, 0) + 1
        cache[result.cache] = cache.get(result.cache, 0) + 1
        retries += max(0, result.attempts - 1)
    record: dict[str, Any] = {
        "type": "summary",
        "tasks": len(results),
        "statuses": statuses,
        "cache": cache,
        "retries": retries,
    }
    if wall_time_s is not None:
        record["wall_time_s"] = wall_time_s
    return record


def write_manifest(
    path: str | Path,
    run_info: dict[str, Any],
    results: dict[str, TaskResult],
    wall_time_s: float | None = None,
) -> Path:
    """Write header + per-task records (sorted by task id) + summary."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [_dump({"type": "header", **run_info})]
    for task_id in sorted(results):
        lines.append(_dump(task_record(results[task_id])))
    lines.append(_dump(summary_record(results, wall_time_s)))
    path.write_text("\n".join(lines) + "\n")
    return path


def experiment_record(
    spec: Experiment,
    graph: TaskGraph,
    results: dict[str, TaskResult],
) -> dict[str, Any]:
    """Deterministic per-experiment result line, of any family.

    Every field here must be a pure function of the grid point — never
    of scheduling order, cache temperature or wall-clock time.
    """
    eid = spec.experiment_id
    by_kind: dict[str, TaskResult] = {}
    missing: list[str] = []
    cache_keys: dict[str, str] = {}
    for task in graph.tasks_for_experiment(eid):
        result = results.get(task.task_id)
        if result is None:
            missing.append(task.kind)  # interrupted run: task never ran
        else:
            by_kind[task.kind] = result
        if task.cache_key is not None:
            cache_keys[task.kind] = task.cache_key

    record: dict[str, Any] = {
        "type": "experiment",
        "experiment": eid,
        **spec.identity_fields(),
        "tasks": {
            kind: result.status for kind, result in sorted(by_kind.items())
        },
        "cache_keys": cache_keys,
    }

    if missing:
        record["status"] = "incomplete"
        record["missing"] = sorted(missing)
        return record

    failures = {
        kind: {"error_type": r.error_type, "error": r.error}
        for kind, r in sorted(by_kind.items())
        if r.status != "ok"
    }
    if failures:
        record["status"] = "failed"
        record["failures"] = failures
        return record

    fields = spec.ok_fields({kind: r.output for kind, r in by_kind.items()})
    record["status"] = "ok" if fields["verified"] else "verify_failed"
    record.update(fields)
    return record


def experiment_records(
    graph: TaskGraph, results: dict[str, TaskResult]
) -> list[dict[str, Any]]:
    """Every experiment's :func:`experiment_record`, sorted by id."""
    return [experiment_record(spec, graph, results)
            for spec in sorted(graph.experiments,
                               key=lambda s: s.experiment_id)]


def degraded_tasks(results: dict[str, TaskResult]) -> list[str]:
    """Solve tasks that fell back below a proven optimum, sorted."""
    return sorted(
        r.task_id for r in results.values()
        if r.ok and r.output is not None
        and r.output.get("solver", {}).get("degraded")
    )


def write_results(
    path: str | Path,
    graph: TaskGraph,
    results: dict[str, TaskResult],
) -> Path:
    """Write the deterministic per-experiment records, sorted by id."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [_dump(record) for record in experiment_records(graph, results)]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """Parse a JSONL file lazily."""
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def scrub_timings(record: dict[str, Any]) -> dict[str, Any]:
    """Copy of a manifest record with run-varying fields removed."""
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}
