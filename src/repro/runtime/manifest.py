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

from repro.runtime.dag import ExperimentSpec, TaskGraph
from repro.runtime.executor import TaskResult

#: Fields of a task record that vary run to run; scrub these before
#: comparing manifests across runs.  Under a solver budget the fallback
#: tier and optimality gap depend on wall-clock luck, so they live here
#: (and in the manifest) — never in ``results.jsonl``.
TIMING_FIELDS = ("wall_time_s", "solver_time_s", "fallback_tier",
                 "optimality_gap", "degraded", "solver_method")


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
    if result.kind == "optimize" and result.output is not None:
        solver = result.output.get("solver", {})
        record["solver_status"] = solver.get("status")
        record["solver_time_s"] = solver.get("solve_time_s")
        record["num_independent_edges"] = solver.get("num_independent_edges")
        if "fallback_tier" in solver:
            record["fallback_tier"] = solver.get("fallback_tier")
            record["optimality_gap"] = solver.get("optimality_gap")
            record["degraded"] = solver.get("degraded")
    if result.kind == "tg-solve" and result.output is not None:
        solver = result.output.get("solver", {})
        record["solver_status"] = solver.get("status")
        record["solver_time_s"] = solver.get("solve_time_s")
        record["solver_method"] = solver.get("method")
        record["degraded"] = solver.get("degraded")
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
    spec: ExperimentSpec,
    graph: TaskGraph,
    results: dict[str, TaskResult],
) -> dict[str, Any]:
    """Deterministic per-experiment result line.

    Every field here must be a pure function of the grid point — never
    of scheduling order, cache temperature or wall-clock time.
    """
    if getattr(spec, "family", None) == "taskgraph":
        from repro.taskgraph.pipeline import tg_experiment_record

        return tg_experiment_record(spec, graph, results)
    eid = spec.experiment_id
    by_kind: dict[str, TaskResult] = {}
    missing: list[str] = []
    for task in graph.tasks_for_experiment(eid):
        result = results.get(task.task_id)
        if result is None:
            missing.append(task.kind)  # interrupted run: task never ran
        else:
            by_kind[task.kind] = result

    record: dict[str, Any] = {
        "type": "experiment",
        "experiment": eid,
        "workload": spec.workload,
        "category": spec.category or "default",
        "seed": spec.seed,
        "mode_table": spec.machine.table_tag,
        "capacitance_uf": spec.machine.capacitance_uf,
        "deadline_frac": spec.deadline_frac,
        "tasks": {
            kind: result.status for kind, result in sorted(by_kind.items())
        },
        "cache_keys": {
            task.kind: task.cache_key
            for task in sorted(graph.tasks_for_experiment(eid),
                               key=lambda t: t.task_id)
            if task.cache_key is not None
        },
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

    optimize = by_kind["optimize"].output
    run = by_kind["simulate"].output["run"]
    verify = by_kind["verify"].output
    record.update({
        "status": "ok" if verify["ok"] else "verify_failed",
        "deadline_s": optimize["deadline_s"],
        "savings_bound": verify["savings_bound"],
        "continuous_energy_nj": verify["continuous_energy_nj"],
        "continuous_savings_bound": verify["continuous_savings_bound"],
        "predicted_energy_nj": optimize["predicted_energy_nj"],
        "predicted_time_s": optimize["predicted_time_s"],
        "measured_energy_nj": run["cpu_energy_nj"],
        "measured_time_s": run["wall_time_s"],
        "mode_transitions": run["mode_transitions"],
        "return_value": run["return_value"],
        "verified": verify["ok"],
        "checks": verify["checks"],
        "baseline_mode": verify["baseline_mode"],
        "baseline_energy_nj": verify["baseline_energy_nj"],
        "savings_vs_single_mode": verify["savings_vs_single_mode"],
    })
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
        if r.kind in ("optimize", "tg-solve") and r.ok
        and r.output is not None
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
