"""Continuous-engine bench behind ``repro bench continuous``.

Two measurements per (workload, deadline) grid point:

* **Opportunity gap** — the paper's Section 3 question restated on
  profiled numbers: how much of the energy saving available to an ideal
  continuously variable voltage (the exact Li-Yao-Yuan optimum,
  :mod:`repro.core.continuous`) does the discrete mode table actually
  achieve (the proven MILP optimum)?  Reported in savings points against
  the best single mode meeting the deadline.

* **Pruner A/B** — the same MILP solved by the native branch and bound
  with the continuous round-up injected as a warm incumbent and without
  it.  The gate demands that the incumbent did real work
  (``continuous_prunes > 0`` somewhere on the grid), never *added* heap
  work (total enqueued nodes with the pruner <= without), and — the
  invariant everything else rests on — returned byte-identical schedules
  and objectives everywhere.

Returns the ``BENCH_continuous.json`` document; its registry entry
(:mod:`repro.perf.harness`) also gates it against the tracked copy in
``benchmarks/results/``.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core import DVSOptimizer
from repro.core.continuous import continuous_bound, round_up_schedule
from repro.errors import ScheduleError
from repro.perf.harness import header, measured_solve, profiled_workload
from repro.profiling.serialize import schedule_to_dict
from repro.solver import warmstart

#: Schema tag for BENCH_continuous.json consumers.
BENCH_FORMAT = 1

#: Deadline grid (fractions of the fast->slow wall-time range).
DEADLINE_FRACS = (0.2, 0.4, 0.6, 0.8)


def _solve_counters(optimizer: DVSOptimizer, cfg, deadline,
                    profile) -> dict[str, Any]:
    """One native solve with counter capture (prunes, enqueued nodes)."""
    outcome, _, counters = measured_solve(optimizer, cfg, deadline, profile)
    return {
        "schedule": schedule_to_dict(outcome.schedule),
        "energy_nj": float(outcome.predicted_energy_nj),
        "nodes_enqueued": int(counters.get("solver.bnb.nodes_enqueued", 0)),
        "continuous_prunes": int(
            counters.get("solver.bnb.continuous_prunes", 0)),
    }


def bench_workload(name: str,
                   deadline_fracs: tuple[float, ...] = DEADLINE_FRACS
                   ) -> dict[str, Any]:
    """One workload's opportunity-gap and pruner-A/B rows."""
    cfg, machine, profile = profiled_workload(name)
    optimizer = DVSOptimizer(machine)
    modes = sorted(profile.wall_time_s)
    t_fast = profile.wall_time_s[modes[-1]]
    t_slow = profile.wall_time_s[modes[0]]

    cold = DVSOptimizer(machine, backend="native")
    warm = DVSOptimizer(machine, backend="native",
                        solver_options={"continuous_prune": True})

    rows: list[dict[str, Any]] = []
    for frac in deadline_fracs:
        deadline = t_fast + frac * (t_slow - t_fast)
        try:
            bound = continuous_bound(profile, machine.mode_table, deadline)
            _, baseline = optimizer.best_single_mode(profile, deadline)
        except ScheduleError:
            continue  # outside the engine's regime at this grid point
        rounded = round_up_schedule(
            profile, machine.mode_table, deadline, bound.speeds,
            machine.transition_model, None,
        )
        # The A/B halves must not share warm-start state: each solve is
        # the same cold solve apart from the injected incumbent.
        warmstart.reset()
        off = _solve_counters(cold, cfg, deadline, profile)
        warmstart.reset()
        on = _solve_counters(warm, cfg, deadline, profile)
        milp_energy = off["energy_nj"]
        savings_cont = 1.0 - bound.energy_nj / baseline if baseline > 0 else 0.0
        savings_milp = 1.0 - milp_energy / baseline if baseline > 0 else 0.0
        rows.append({
            "deadline_frac": frac,
            "deadline_s": deadline,
            "baseline_energy_nj": baseline,
            "continuous_energy_nj": bound.energy_nj,
            "milp_energy_nj": milp_energy,
            "roundup_energy_nj": None if rounded is None else rounded.energy_nj,
            "savings_continuous": savings_cont,
            "savings_milp": savings_milp,
            "opportunity_gap": savings_cont - savings_milp,
            "pruner": {
                "continuous_prunes": on["continuous_prunes"],
                "nodes_enqueued_off": off["nodes_enqueued"],
                "nodes_enqueued_on": on["nodes_enqueued"],
                "identical": (
                    off["energy_nj"] == on["energy_nj"]
                    and json.dumps(off["schedule"], sort_keys=True)
                    == json.dumps(on["schedule"], sort_keys=True)
                ),
            },
        })
    return {"name": name, "rows": rows}


def run_continuous_bench(workloads: tuple[str, ...] = ("adpcm", "gsm"),
                         deadline_fracs: tuple[float, ...] = DEADLINE_FRACS
                         ) -> dict[str, Any]:
    """The full benchmark document (the BENCH_continuous.json payload)."""
    cases = [bench_workload(name, deadline_fracs) for name in workloads]
    rows = [row for case in cases for row in case["rows"]]
    prunes = sum(r["pruner"]["continuous_prunes"] for r in rows)
    enq_off = sum(r["pruner"]["nodes_enqueued_off"] for r in rows)
    enq_on = sum(r["pruner"]["nodes_enqueued_on"] for r in rows)
    return {
        **header("continuous-engine", BENCH_FORMAT),
        # Worst-case share of the continuous opportunity the discrete
        # table leaves on the table, in savings points.
        "headline_gap": max((r["opportunity_gap"] for r in rows),
                            default=0.0),
        "continuous_prunes": prunes,
        "nodes_enqueued_off": enq_off,
        "nodes_enqueued_on": enq_on,
        "all_identical": all(r["pruner"]["identical"] for r in rows),
        "pruner_effective": prunes > 0 and enq_on <= enq_off,
        "cases": cases,
    }
