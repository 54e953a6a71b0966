"""Cross-bench aggregation behind ``repro bench --summary``.

Collects the headline metrics of every BENCH_*.json document present in
a directory — simulator fast path, LP solver, serving load test,
taskgraph MILP — into one ``BENCH_summary.json``, with deltas against
the tracked baselines in ``benchmarks/results/``.  One file to read
after a change instead of four, and one place for CI to spot a
regression in any subsystem.

Missing documents are reported, not fatal: a checkout that never ran
``repro loadtest`` still summarizes the benches it has.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

#: Schema tag for BENCH_summary.json consumers.
SUMMARY_FORMAT = 1

#: Known bench documents and the headline metrics to extract from each.
#: (file name, summary key, metric paths).  A path picks nested fields
#: with dots ("latency_s.p50").
BENCHES: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("BENCH_simulator.json", "simulator",
     ("headline_speedup", "all_identical")),
    ("BENCH_solver.json", "solver",
     ("pivot_ratio", "warm_pivots", "cold_pivots", "all_identical")),
    ("BENCH_serve.json", "serve",
     ("throughput_rps", "coalescing_ratio", "latency_s.p50")),
    ("BENCH_taskgraph.json", "taskgraph",
     ("headline_solve_s", "headline_gap", "all_optimal", "all_verified")),
)


def _pick(document: dict[str, Any], path: str) -> Any:
    value: Any = document
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def _headline(document: dict[str, Any],
              metrics: tuple[str, ...]) -> dict[str, Any]:
    return {path: _pick(document, path) for path in metrics}


def _deltas(current: dict[str, Any],
            baseline: dict[str, Any]) -> dict[str, Any]:
    """current - baseline per shared numeric metric (+ relative)."""
    out: dict[str, Any] = {}
    for key, value in current.items():
        base = baseline.get(key)
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and isinstance(base, (int, float))
                and not isinstance(base, bool)):
            delta = value - base
            out[key] = {
                "current": value,
                "baseline": base,
                "delta": delta,
                "delta_rel": delta / base if base else None,
            }
    return out


def run_summary(bench_dir: str | Path = ".",
                baseline_dir: str | Path = "benchmarks/results",
                ) -> dict[str, Any]:
    """The BENCH_summary.json payload."""
    bench_dir = Path(bench_dir)
    baseline_dir = Path(baseline_dir)
    benches: dict[str, Any] = {}
    missing: list[str] = []
    for filename, key, metrics in BENCHES:
        current_path = bench_dir / filename
        if not current_path.exists():
            missing.append(filename)
            continue
        document = json.loads(current_path.read_text())
        entry: dict[str, Any] = {
            "file": filename,
            "format": document.get("format"),
            "headline": _headline(document, metrics),
        }
        baseline_path = baseline_dir / filename
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
            entry["baseline_headline"] = _headline(baseline, metrics)
            entry["deltas"] = _deltas(entry["headline"],
                                      entry["baseline_headline"])
        else:
            entry["baseline_headline"] = None
            entry["deltas"] = None
        benches[key] = entry
    return {
        "format": SUMMARY_FORMAT,
        "benchmark": "summary",
        "bench_dir": str(bench_dir),
        "baseline_dir": str(baseline_dir),
        "benches": benches,
        "missing": sorted(missing),
    }


def write_summary_json(document: dict[str, Any],
                       path: str | Path = "BENCH_summary.json") -> Path:
    """Persist the summary where CI expects it."""
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path
