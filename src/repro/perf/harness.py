"""The one harness behind ``repro bench``: a registry of bench documents.

Each :class:`Bench` entry in :data:`BENCHES` declares only what is
particular to one document: its file name, the run function that
measures, its table columns and headline metrics, and its named gates.
Everything else is shared:

* the document header (:func:`header`) and the writer
  (:func:`write_document`), also used by ``repro loadtest``;
* the table printer, the gate evaluation and the exit code
  (:func:`run_kind`);
* the cross-bench summary (:func:`run_summary`), which reads every
  entry's headline metrics, with deltas against the tracked baselines
  in ``benchmarks/results/``;
* the measurement helpers the bench modules have in common: best-of-N
  timing (:func:`best_of`), one solve with the counters it moved
  (:func:`measured_solve`) and "compile and profile a workload"
  (:func:`profiled_workload`).

A gate that compares against a baseline reads
``<baseline-dir>/<file name>``; a missing baseline fails it.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.resilience import EXIT_FAILURE, EXIT_OK

Document = dict[str, Any]

#: Schema tag for BENCH_summary.json consumers.
SUMMARY_FORMAT = 1


# -- shared document plumbing -------------------------------------------------------


def header(benchmark: str, fmt: int) -> Document:
    """The fields every bench document starts with."""
    return {"format": fmt, "benchmark": benchmark,
            "python": platform.python_version(),
            "platform": platform.platform()}


def write_document(document: Document, path: str | Path) -> Path:
    """Persist a bench document where CI expects it."""
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path


def _load(path: Path) -> Document | None:
    return json.loads(path.read_text()) if path.exists() else None


def _pick(document: Document, path: str) -> Any:
    """A nested field by dotted path ("latency_s.p50"), else None."""
    value: Any = document
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


# -- shared measurement helpers -----------------------------------------------------


def best_of(call: Callable[..., Any], repeats: int,
            setup: Callable[[], Any] | None = None) -> tuple[float, Any]:
    """Fastest wall time of ``repeats`` calls, and the last result.

    ``setup``, when given, runs untimed before each call, and the call
    receives its result.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        args = () if setup is None else (setup(),)
        t0 = time.perf_counter()
        result = call(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def measured_solve(optimizer, cfg, deadline,
                   profile) -> tuple[Any, float, dict[str, int]]:
    """One ``optimize`` call: its outcome, wall seconds and counters.

    The solve runs in an observe session of its own, so the counters
    (pivots, prunes, enqueued nodes, ...) are this solve's alone.
    """
    from repro import observe

    observe.enable(reset=True)
    try:
        t0 = time.perf_counter()
        outcome = optimizer.optimize(cfg, deadline, profile=profile)
        seconds = time.perf_counter() - t0
        counters = observe.snapshot(reset=True).get("counters", {})
    finally:
        observe.disable()
    return outcome, seconds, counters


def profiled_workload(name: str):
    """(cfg, machine, profile): workload ``name`` compiled and profiled
    on the default three-mode machine.  Untimed bench set-up."""
    from repro.core import DVSOptimizer
    from repro.lang import compile_program
    from repro.simulator import SCALE_CONFIG, XSCALE_3, Machine, TransitionCostModel
    from repro.workloads import get_workload

    spec = get_workload(name)
    cfg = compile_program(spec.source, name=name)
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    profile = DVSOptimizer(machine).profile(
        cfg, inputs=spec.inputs(), registers=spec.registers())
    return cfg, machine, profile


# -- the registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """One named pass/fail check of a bench document."""

    name: str
    check: Callable[[Document, Document | None], bool]  # (doc, baseline)
    baseline: bool = False  # needs the tracked baseline document


def _cases(document: Document) -> Iterable[Document]:
    return document["cases"]


def _nested(key: str) -> Callable[[Document], Iterable[Document]]:
    """Rows of ``case[key]`` for every case, labelled with the case."""
    return lambda document: [{"case": case["name"], **row}
                             for case in document["cases"]
                             for row in case[key]]


@dataclass(frozen=True)
class Bench:
    """What is particular to one bench document."""

    filename: str
    headline: tuple[str, ...]  # field paths the summary and footer report
    run: Callable[[Any], Document] | None = None  # None: another command writes it
    rows: Callable[[Document], Iterable[Document]] = _cases
    columns: tuple[tuple[str, str], ...] = ()  # (field path, format spec)
    gates: tuple[Gate, ...] = ()


def _csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _run_simulator(args) -> Document:
    from repro.perf.bench import run_bench

    return run_bench(suite=args.suite, repeats=args.repeats, mode=args.mode)


def _run_solver(args) -> Document:
    from repro.perf.bench_solver import run_solver_bench

    return run_solver_bench(workloads=_csv(args.workloads))


def _run_continuous(args) -> Document:
    from repro.perf.bench_continuous import run_continuous_bench

    return run_continuous_bench(workloads=_csv(args.workloads))


def _run_taskgraph(args) -> Document:
    from repro.perf.bench_taskgraph import run_taskgraph_bench

    return run_taskgraph_bench(
        tasks=args.tg_tasks, cores=tuple(int(c) for c in _csv(args.tg_cores)),
        repeats=args.repeats)


def _run_summary(args) -> Document:
    return run_summary(args.bench_dir, args.baseline_dir)


def _summary_rows(document: Document) -> Iterable[Document]:
    return [{"bench": key, "metric": metric, "value": value,
             "vs_baseline": ((entry["deltas"] or {}).get(metric)
                             or {}).get("delta_rel")}
            for key, entry in document["benches"].items()
            for metric, value in entry["headline"].items()]


def _gap_matches_baseline(doc: Document, base: Document | None) -> bool:
    # Energies are deterministic (proven-optimal solves), so the gap
    # must match the committed baseline; solve times may drift.
    return abs(doc["headline_gap"] - base["headline_gap"]) < 1e-9


_ALL_IDENTICAL = Gate("all_identical", lambda d, b: d["all_identical"])

#: One entry per bench document, in summary order.  ``repro bench KIND``
#: runs the entries that have a run function; ``serve`` is written by
#: ``repro loadtest``, which gates its own flag-dependent claims.
BENCHES: dict[str, Bench] = {
    "simulator": Bench(
        "BENCH_simulator.json",
        ("headline_speedup", "min_replay_speedup", "all_identical"),
        run=_run_simulator,
        columns=(("name", ""), ("reference_s", ".3f"), ("fast_s", ".3f"),
                 ("speedup", ".2f"), ("replay_s", ".3f"),
                 ("replay_speedup", ".2f"), ("profile_s", ".3f"),
                 ("identical", "")),
        gates=(_ALL_IDENTICAL,)),
    "solver": Bench(
        "BENCH_solver.json",
        ("pivot_ratio", "warm_pivots", "cold_pivots", "all_identical"),
        run=_run_solver, rows=_nested("deadlines"),
        columns=(("case", ""), ("deadline", "d"), ("warm_s", ".2f"),
                 ("cold_s", ".2f"), ("highs_s", ".2f"), ("warm_pivots", "d"),
                 ("cold_pivots", "d"), ("identical", "")),
        gates=(_ALL_IDENTICAL,
               Gate("warm_pivots_le_0.9_cold", lambda d, b:
                    d["warm_pivots"] <= 0.9 * d["cold_pivots"]))),
    "serve": Bench(
        "BENCH_serve.json",
        ("throughput_rps", "coalescing_ratio", "latency_s.p50")),
    "taskgraph": Bench(
        "BENCH_taskgraph.json",
        ("headline_solve_s", "headline_gap", "all_optimal", "all_verified"),
        run=_run_taskgraph,
        columns=(("name", ""), ("solve_s", ".3f"), ("milp_energy_nj", ".1f"),
                 ("greedy_energy_nj", ".1f"), ("energy_gap", ".1%"),
                 ("optimal", ""), ("verified", "")),
        gates=(Gate("all_optimal", lambda d, b: d["all_optimal"]),
               Gate("all_verified", lambda d, b: d["all_verified"]),
               # The MILP must be worth running on the seeded instance.
               Gate("headline_gap_gt_0.05", lambda d, b: d["headline_gap"] > 0.05),
               Gate("headline_gap_matches_baseline", _gap_matches_baseline,
                    baseline=True))),
    "continuous": Bench(
        "BENCH_continuous.json",
        ("headline_gap", "continuous_prunes", "nodes_enqueued_off",
         "nodes_enqueued_on", "all_identical", "pruner_effective"),
        run=_run_continuous, rows=_nested("rows"),
        columns=(("case", ""), ("deadline_frac", ".2f"),
                 ("continuous_energy_nj", ".4g"), ("milp_energy_nj", ".4g"),
                 ("opportunity_gap", ".1%"), ("pruner.continuous_prunes", "d"),
                 ("pruner.nodes_enqueued_off", "d"),
                 ("pruner.nodes_enqueued_on", "d"), ("pruner.identical", "")),
        gates=(_ALL_IDENTICAL,
               Gate("pruner_effective", lambda d, b: d["pruner_effective"]),
               Gate("headline_gap_matches_baseline", _gap_matches_baseline,
                    baseline=True),
               Gate("continuous_prunes_ge_baseline", lambda d, b:
                    d["continuous_prunes"] >= b["continuous_prunes"],
                    baseline=True),
               Gate("nodes_enqueued_on_le_off", lambda d, b:
                    d["nodes_enqueued_on"] <= d["nodes_enqueued_off"]))),
    "summary": Bench(
        "BENCH_summary.json", ("missing",), run=_run_summary,
        rows=_summary_rows,
        columns=(("bench", ""), ("metric", ""), ("value", ""),
                 ("vs_baseline", "+.1%"))),
}


# -- summary -----------------------------------------------------------------------


def _deltas(current: Document, baseline: Document) -> Document:
    """current - baseline per shared numeric metric (+ relative)."""
    out: Document = {}
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
                baseline_dir: str | Path = "benchmarks/results") -> Document:
    """Every present bench document's headline metrics, with deltas
    against the baselines.  Missing documents are reported, not fatal."""
    bench_dir = Path(bench_dir)
    baseline_dir = Path(baseline_dir)
    benches: Document = {}
    missing: list[str] = []
    for key, bench in BENCHES.items():
        if key == "summary":
            continue
        document = _load(bench_dir / bench.filename)
        if document is None:
            missing.append(bench.filename)
            continue
        headline = {path: _pick(document, path) for path in bench.headline}
        baseline = _load(baseline_dir / bench.filename)
        base_headline = (None if baseline is None else
                         {path: _pick(baseline, path) for path in bench.headline})
        benches[key] = {
            "file": bench.filename,
            "format": document.get("format"),
            "headline": headline,
            "baseline_headline": base_headline,
            "deltas": (None if base_headline is None
                       else _deltas(headline, base_headline)),
        }
    return {
        **header("summary", SUMMARY_FORMAT),
        "bench_dir": str(bench_dir),
        "baseline_dir": str(baseline_dir),
        "benches": benches,
        "missing": sorted(missing),
    }


# -- the command -------------------------------------------------------------------


def _cell(value: Any, spec: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if not spec and isinstance(value, float):
        spec = ".4g"
    return format(value, spec)


def render_table(columns: tuple[tuple[str, str], ...],
                 rows: Iterable[Document]) -> str:
    """Columns titled by their field name; the first one left-aligned."""
    table = [[path.rsplit(".", 1)[-1] for path, _ in columns]]
    table += [[_cell(_pick(row, path), spec) for path, spec in columns]
              for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    return "\n".join(
        "  ".join(cell.ljust(width) if i == 0 else cell.rjust(width)
                  for i, (cell, width) in enumerate(zip(line, widths)))
        for line in table)


def failed_gates(bench: Bench, document: Document,
                 baseline: Document | None) -> list[str]:
    """Names of the gates ``document`` fails."""
    return [gate.name for gate in bench.gates
            if (gate.baseline and baseline is None)
            or not gate.check(document, baseline)]


def run_kind(kind: str, args) -> int:
    """``repro bench KIND``: run, print, write, then gate the document."""
    bench = BENCHES[kind]
    document = bench.run(args)
    print(render_table(bench.columns, bench.rows(document)))
    path = write_document(document, args.output or bench.filename)
    headline = "  ".join(f"{metric} {_cell(_pick(document, metric), '')}"
                         for metric in bench.headline)
    print(f"\n{headline}  [written to {path}]")
    baseline_path = Path(args.baseline_dir) / bench.filename
    baseline = _load(baseline_path)
    failed = failed_gates(bench, document, baseline)
    for name in failed:
        print(f"bench: gate {name} failed", file=sys.stderr)
    if failed and baseline is None and any(g.baseline for g in bench.gates):
        print(f"bench: no baseline at {baseline_path}", file=sys.stderr)
    return EXIT_FAILURE if failed else EXIT_OK
