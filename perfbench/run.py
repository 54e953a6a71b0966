"""Benchmark of the repro pipeline, measured end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite-cold --seed 0 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of one untraced run;
``--trace 1`` runs the same work with every layer wrapped and reports the
per-layer ledger instead.  The last line of standard output is one JSON
object; the exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

import ledger
import proc
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent

#: Count metrics: exact on every traced run of one (workload, seed, seconds).
COUNTS = ("lang.compiles", "simulator.runs", "simulator.insns",
          "perf.codegen_calls", "profiling.sim_runs", "verify.sim_runs",
          "core.milp_vars", "core.milp_rows", "core.edges_kept",
          "solver.solves", "solver.nodes", "solver.iterations",
          "runtime.tasks", "runtime.cache_hits", "runtime.cache_misses",
          "resilience.journal_records")
#: Artifact bytes: not exact, because cached optimize payloads embed the
#: solver's wall time, whose printed length varies from run to run.
BYTES = ("runtime.cache_read_bytes", "runtime.cache_write_bytes")
SERVE_COUNTS = ("serve.dag_runs", "serve.replayed", "serve.coalesced")
SERVE_TIMES_MS = ("serve.client_p50_ms", "serve.client_p90_ms",
                  "serve.server_p50_ms", "serve.http_overhead_ms",
                  "serve.queue_wait_ms", "serve.executor_wait_ms")
#: Workloads that must do no simulation and no solving at all.
CACHED_ONLY = ("suite-warm", "serve-warm")
STARTUP_LAYERS = ("process.import", "trace.install")
#: The ledger may overshoot its basis by this share (timer granularity).
LEDGER_SLACK = 0.02


def end_to_end(m: workloads.Measured) -> dict[str, dict]:
    savings = [row["savings_vs_single_mode"] for row in m.rows]
    values = {
        "wall_s": (m.wall_s, "s"),
        "cpu_s": (m.cpu_s, "s"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
        "setup_s": (m.setup_s, "s"),
        "ok_frac": ((m.attempted - m.failed) / m.attempted, "frac"),
        "savings_pct": (100.0 * sum(savings) / len(savings), "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(name: str, m: workloads.Measured, merged: dict, run: workloads.Run,
              host_ms: float) -> dict[str, dict]:
    """The ledger as metrics, after its checks: it adds up, every wrapper
    was restored, counts repeat, and the oracle agrees."""
    if not merged["restored"] or merged["processes"] == 0:
        raise workloads.CheckFailed("a traced process did not restore every "
                                    "wrapped function (or wrote no ledger)")
    self_s = merged["self_s"]
    counts = {key: merged["counts"].get(key, 0) for key in COUNTS}
    counts.update({key: int(m.extra.get(key, 0)) for key in SERVE_COUNTS})
    basis_s = m.basis_s
    if m.started_outside_basis:
        # The server starts before any request is timed; its start-up
        # layers are added to the request time they precede.
        basis_s += sum(self_s.get(k, 0.0) for k in STARTUP_LAYERS)
    other_s = basis_s - sum(self_s.values())
    if other_s < -LEDGER_SLACK * basis_s:
        raise workloads.CheckFailed(
            f"layer self times exceed the traced wall time by {-other_s:.3f} s")
    if name in CACHED_ONLY and (counts["simulator.runs"] or counts["solver.solves"]):
        raise workloads.CheckFailed(f"{name} simulated or solved on a warm cache")
    for program, values in merged["returns"].items():
        if values != [m.reference[program]]:
            raise workloads.CheckFailed(
                f"{program}: simulated return values {values} != interpreter "
                f"{m.reference[program]}")
    run.refs.same(f"counts of traced {name} seed {run.seed} "
                  f"seconds {run.seconds}", counts)

    metrics = {f"{layer}_s": (self_s.get(layer, 0.0), "s")
               for layer in ledger.LAYERS}
    metrics["other_s"] = (other_s, "s")
    metrics["ledger.wall_s"] = (basis_s, "s")
    metrics.update({key: (value, "count") for key, value in counts.items()})
    metrics.update({key: (merged["counts"].get(key, 0), "bytes") for key in BYTES})
    insns, iters = counts["simulator.insns"], counts["solver.iterations"]
    metrics["simulator.ns_per_insn"] = (
        1e9 * self_s.get("simulator.run", 0.0) / insns if insns else 0.0, "ns")
    metrics["solver.us_per_iter"] = (
        1e6 * self_s.get("solver.solve", 0.0) / iters if iters else 0.0, "us")
    metrics.update({key: (m.extra.get(key, 0.0), "ms") for key in SERVE_TIMES_MS})
    metrics["host.ref_loop_ms"] = (host_ms, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10,
                        help="nominal length of the timed run (>= 1); it sets "
                             "the amount of work, never a deadline")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro.runtime.manifest  # noqa: F401  (row scrubbing, off the clock)

    work = ROOT / "perfbench" / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(ROOT, work, args.seed, args.seconds, bool(args.trace))
    timed_run = workloads.WORKLOADS[args.workload]
    try:
        host = [proc.reference_loop_ms() for _ in range(3)]
        measured = timed_run(run)
        host += [proc.reference_loop_ms() for _ in range(3)]
        host_ms = stats.median(host)
        if run.traced:
            workloads.oracle_check(run, measured)
            metrics = per_layer(args.workload, measured,
                                ledger.merge(str(run.ledger_dir)), run, host_ms)
        else:
            metrics = end_to_end(measured)
        correct = measured.failed == 0
    except workloads.CheckFailed as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} attempted={measured.attempted} "
          f"failed={measured.failed} host_ref_loop_ms={host_ms:.1f}")
    for key in ("serve.client_p50_ms", "serve.client_p90_ms"):
        if key in measured.extra:
            print(f"#   {key} = {measured.extra[key]:.3f}")
    for key, metric in metrics.items():
        print(f"  {key:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": measured.attempted,
                      "failed": measured.failed, "metrics": metrics}))
    return 0 if correct else 1


def _terminated(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through every cleanup


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    started = time.monotonic()
    code = main()
    print(f"# benchmark process wall {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    sys.exit(code)
