"""Taskgraph bench behind ``repro bench taskgraph``.

Measures the multi-core taskgraph MILP on a fixed seeded fork-join
instance across core counts: wall-clock solve time, and the energy gap
between the proven optimum and the greedy heuristic ((greedy - milp) /
greedy — how much the MILP is worth).  Returns the
``BENCH_taskgraph.json`` document.

The benchmark doubles as a differential check: every case re-verifies
that the solver objective equals the replayed energy and that the MILP
never loses to greedy (``all_verified``).
"""

from __future__ import annotations

from typing import Any

from repro.perf.harness import best_of, header
from repro.simulator.dvs import XSCALE_3, TransitionCostModel
from repro.taskgraph.heuristic import deadline_for, greedy_taskgraph
from repro.taskgraph.milp import build_taskgraph_milp
from repro.taskgraph.model import fork_join
from repro.taskgraph.simulate import replay
from repro.taskgraph.tables import synthetic_tables
from repro.verify import tolerances

#: Schema tag for BENCH_taskgraph.json consumers.
BENCH_FORMAT = 1


def bench_taskgraph_case(spec, tables, cores: int, deadline_frac: float,
                         transition: TransitionCostModel,
                         repeats: int = 1,
                         budget_s: float | None = None) -> dict[str, Any]:
    """Benchmark one core count: best-of-``repeats`` solve + greedy gap."""
    deadline_s = deadline_for(spec, tables, cores, deadline_frac, transition)
    options: dict[str, Any] = {}
    if budget_s is not None:
        options["time_limit"] = budget_s
    best_s, (formulation, solution) = best_of(
        lambda formulation: (formulation, formulation.solve(**options)),
        repeats,
        setup=lambda: build_taskgraph_milp(spec, tables, cores, deadline_s,
                                           transition))
    schedule = formulation.extract_schedule(solution, allow_incumbent=True)
    replayed = replay(spec, tables, schedule, transition)
    greedy = greedy_taskgraph(spec, tables, cores, deadline_s, transition)
    greedy_energy = greedy["replayed"]["energy_nj"]
    milp_energy = replayed["energy_nj"]
    gap = (greedy_energy - milp_energy) / greedy_energy if greedy_energy else 0.0
    checks = tolerances.taskgraph_checks(
        replayed["makespan_s"], deadline_s, milp_energy, [solution.objective],
        greedy_energy, "milp")
    return {
        "name": f"p{cores}",
        "cores": cores,
        "deadline_s": deadline_s,
        "solve_s": best_s,
        "milp_energy_nj": milp_energy,
        "greedy_energy_nj": greedy_energy,
        "energy_gap": gap,
        "switches": replayed["switches"],
        "optimal": solution.ok,
        "verified": all(checks.values()),
    }


def run_taskgraph_bench(tasks: int = 7, cores: tuple[int, ...] = (1, 2, 4),
                        deadline_frac: float = 0.5, repeats: int = 1,
                        budget_s: float | None = None) -> dict[str, Any]:
    """The full benchmark document (the BENCH_taskgraph.json payload)."""
    spec = fork_join(tasks=tasks, seed=0)
    tables = synthetic_tables(spec, XSCALE_3)
    transition = TransitionCostModel()
    cases = [bench_taskgraph_case(spec, tables, count, deadline_frac,
                                  transition, repeats=repeats,
                                  budget_s=budget_s)
             for count in cores]
    return {
        **header("taskgraph-milp", BENCH_FORMAT),
        "graph": spec.name,
        "graph_tasks": tasks,
        "deadline_frac": deadline_frac,
        "headline_solve_s": max(c["solve_s"] for c in cases),
        "headline_gap": max(c["energy_gap"] for c in cases),
        "all_optimal": all(c["optimal"] for c in cases),
        "all_verified": all(c["verified"] for c in cases),
        "cases": cases,
    }
