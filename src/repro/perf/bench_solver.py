"""Solver bench behind ``repro bench solver``.

Times the paper's Figure 17/18 experiment — the five-deadline sweep per
workload — on the native revised simplex two ways:

* **warm**: the optimal basis and branching pseudocosts handed from each
  deadline to the next (exactly what ``repro sweep`` does through the
  warm-start registry);
* **cold**: every deadline solved from scratch;

and solves each deadline once more with HiGHS as the independent
reference.  Every row is checked for identity across the three: the
same serialized schedule and the same canonical ``predicted_energy_nj``
bits.  Pivot counts are deterministic, so the CI gate is on them
(``warm_pivots <= 0.9 * cold_pivots``) rather than on wall time.  Warm
starting does not win at every deadline; the per-deadline rows say where.
Both native runs warm-start every branch-and-bound node from its
parent's basis; ``warm_abandoned`` counts the warm starts either run
gave up for a cold re-solve, and must be 0.
Returns the ``BENCH_solver.json`` document.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core import DVSOptimizer
from repro.perf.harness import header, measured_solve, profiled_workload
from repro.profiling.serialize import schedule_to_dict
from repro.solver import warmstart
from repro.workloads import derive_deadlines

#: Schema tag for BENCH_solver.json consumers.  v2: warm vs cold revised
#: plus a HiGHS identity row (v1 timed a dense tableau instead).
BENCH_FORMAT = 2


def _solve_one(optimizer: DVSOptimizer, cfg, deadline, profile) -> dict[str, Any]:
    """One optimize call: seconds, native pivots, abandoned warm starts
    and the emitted row."""
    outcome, seconds, counters = measured_solve(optimizer, cfg, deadline,
                                                profile)
    return {
        "seconds": seconds,
        "pivots": int(counters.get("solver.revised.pivots", 0)),
        "abandoned": int(sum(
            value for key, value in counters.items()
            if key.startswith("solver.revised.warm_abandoned."))),
        "row": json.dumps({
            "schedule": schedule_to_dict(outcome.schedule),
            "predicted_energy_nj": outcome.predicted_energy_nj,
            "predicted_time_s": outcome.predicted_time_s,
        }, sort_keys=True),
    }


def bench_workload(name: str) -> dict[str, Any]:
    """Benchmark one workload's Fig 17/18 sweep, warm vs cold vs HiGHS.

    The profile (simulation) is built once, untimed: this benchmark
    isolates solver time, which is what Figure 18 plots.
    """
    cfg, machine, profile = profiled_workload(name)
    times = profile.wall_time_s
    deadlines = derive_deadlines(times[0], times[1], times[2])

    warm_optimizer = DVSOptimizer(
        machine, backend="native",
        solver_options={"warm_key": f"bench.{name}"})
    cold_optimizer = DVSOptimizer(machine, backend="native")
    highs_optimizer = DVSOptimizer(machine, backend="scipy")

    # Reset the registry so the first deadline solves cold and the rest
    # warm-start, as a real sweep does.
    warmstart.reset()
    try:
        warm = [_solve_one(warm_optimizer, cfg, d, profile) for d in deadlines]
        cold = [_solve_one(cold_optimizer, cfg, d, profile) for d in deadlines]
        highs = [_solve_one(highs_optimizer, cfg, d, profile) for d in deadlines]
    finally:
        warmstart.reset()

    rows = [{
        "deadline": index + 1,
        "warm_s": w["seconds"],
        "cold_s": c["seconds"],
        "highs_s": h["seconds"],
        "warm_pivots": w["pivots"],
        "cold_pivots": c["pivots"],
        "warm_abandoned": w["abandoned"] + c["abandoned"],
        "identical": w["row"] == c["row"] == h["row"],
    } for index, (w, c, h) in enumerate(zip(warm, cold, highs))]
    warm_s = sum(r["warm_s"] for r in rows)
    cold_s = sum(r["cold_s"] for r in rows)
    return {
        "name": name,
        "deadlines": rows,
        "warm_s": warm_s,
        "cold_s": cold_s,
        "highs_s": sum(r["highs_s"] for r in rows),
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "warm_pivots": sum(r["warm_pivots"] for r in rows),
        "cold_pivots": sum(r["cold_pivots"] for r in rows),
        "warm_abandoned": sum(r["warm_abandoned"] for r in rows),
        "identical": all(r["identical"] for r in rows),
    }


def run_solver_bench(workloads: tuple[str, ...] = ("adpcm", "gsm")
                     ) -> dict[str, Any]:
    """The full benchmark document (the BENCH_solver.json payload)."""
    cases = [bench_workload(name) for name in workloads]
    warm_pivots = sum(c["warm_pivots"] for c in cases)
    cold_pivots = sum(c["cold_pivots"] for c in cases)
    warm_s = sum(c["warm_s"] for c in cases)
    cold_s = sum(c["cold_s"] for c in cases)
    return {
        **header("solver-warmstart", BENCH_FORMAT),
        "all_identical": all(c["identical"] for c in cases),
        "warm_pivots": warm_pivots,
        "cold_pivots": cold_pivots,
        "pivot_ratio": warm_pivots / cold_pivots if cold_pivots else 1.0,
        "warm_abandoned": sum(c["warm_abandoned"] for c in cases),
        "warm_s": warm_s,
        "cold_s": cold_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "cases": cases,
    }
