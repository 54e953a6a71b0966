"""Differential and metamorphic oracles for the taskgraph family.

Each check returns an :class:`~repro.verify.oracles.OracleResult` whose
detail names the instance.  The per-instance checks are
:func:`repro.verify.tolerances.taskgraph_checks`, the same set a results
row's ``tg-verify`` task and the bench's ``verified`` apply:

* **deadline-met** — the replayed makespan meets the deadline, up to
  ``REPLAY_DEADLINE_REL_SLACK`` (the replay is exact);
* **replay-exact** — the solver's objective and the canonical price of
  the decoded schedule both equal its replayed energy (the MILP prices
  transitions with the same nJ constants the simulator charges), within
  LP float tolerance;
* **milp-beats-greedy** — the (optimal or incumbent) MILP energy never
  exceeds the greedy heuristic's on the same instance;
* **cores-monotonic** — at a fixed absolute deadline, adding cores
  never increases optimal energy (a P-core schedule is feasible on
  P+1 cores with an idle lane);
* **deadline-monotonic** — at fixed cores, relaxing the deadline never
  increases optimal energy (the feasible set only grows).

Monotonicity is only asserted between *proven optimal* solves — an
incumbent from a truncated search may legitimately invert the order.
"""

from __future__ import annotations

import random

from repro import observe
from repro.simulator.dvs import XSCALE_3, TransitionCostModel
from repro.taskgraph.heuristic import deadline_for, greedy_taskgraph
from repro.taskgraph.model import TaskGraphSpec, build_graph
from repro.taskgraph.solve import solve_taskgraph
from repro.taskgraph.tables import TaskTables, synthetic_tables
from repro.verify import tolerances
from repro.verify.oracles import FuzzReport, OracleResult


def verify_instance(
    spec: TaskGraphSpec,
    tables: TaskTables,
    cores: int,
    frac: float,
    transition: TransitionCostModel,
    budget_s: float | None = None,
    backend: str = "auto",
) -> list[OracleResult]:
    """Differential checks on one (graph, cores, deadline) instance."""
    deadline_s = deadline_for(spec, tables, cores, frac, transition)
    label = f"{spec.name} p{cores} d{frac:g}"
    result = solve_taskgraph(spec, tables, cores, deadline_s, transition,
                             budget_s=budget_s, backend=backend)
    energy = result["replayed"]["energy_nj"]
    makespan = result["replayed"]["makespan_s"]
    objectives = {name: result[name]
                  for name in ("solver_objective", "objective")
                  if result[name] is not None}
    greedy = greedy_taskgraph(spec, tables, cores, deadline_s,
                              transition)["replayed"]["energy_nj"]
    method = result["method"]
    checks = tolerances.taskgraph_checks(makespan, deadline_s, energy,
                                         objectives.values(), greedy, method)
    return [
        OracleResult(
            "deadline-met", checks["deadline_met"],
            f"[{label}] replayed makespan {makespan:.9g}s, deadline "
            f"{deadline_s:.9g}s"),
        OracleResult(
            "replay-exact", checks["objective_matches"],
            f"[{label}] replayed energy {energy:.9g} nJ; "
            + (", ".join(f"{name.replace('_', ' ')} {value:.9g}"
                         for name, value in objectives.items())
               or "no MILP objective (greedy tier)")),
        OracleResult(
            "milp-beats-greedy", checks["beats_greedy"],
            f"[{label}] {method} {energy:.1f} nJ, greedy {greedy:.1f} nJ"),
    ]


def _monotonic(name: str, label: str, points: list[tuple[str, float, bool]]
               ) -> OracleResult:
    """Energy never rises along ``points`` (tag, energy, proven optimal),
    compared across the proven-optimal points only."""
    optimal = [(tag, energy) for tag, energy, proven in points if proven]
    rise = tolerances.first_increase(energy for _, energy in optimal)
    if rise is not None:
        (tag_lo, e_lo), (tag_hi, e_hi) = optimal[rise:rise + 2]
        return OracleResult(name, False,
                            f"[{label}] optimal energy rose: {tag_lo}="
                            f"{e_lo:.9g} nJ -> {tag_hi}={e_hi:.9g} nJ")
    shown = (" -> ".join(f"{tag}={energy:.9g}" for tag, energy in optimal)
             + " nJ" if optimal else "no proven-optimal solves")
    return OracleResult(name, True, f"[{label}] {shown}")


def verify_cores_monotonic(
    spec: TaskGraphSpec,
    tables: TaskTables,
    cores_list: list[int],
    frac: float,
    transition: TransitionCostModel,
    budget_s: float | None = None,
    backend: str = "auto",
) -> OracleResult:
    """Fixed absolute deadline; energy must not rise with core count."""
    cores_list = sorted(cores_list)
    # Anchor the deadline at the fewest cores: every larger core count
    # can replicate that schedule with idle lanes, so all are feasible.
    deadline_s = deadline_for(spec, tables, cores_list[0], frac, transition)
    points = []
    for cores in cores_list:
        result = solve_taskgraph(spec, tables, cores, deadline_s, transition,
                                 budget_s=budget_s, backend=backend)
        points.append((f"p{cores}", result["replayed"]["energy_nj"],
                       result["method"] == "milp"))
    return _monotonic("cores-monotonic", f"{spec.name} d{frac:g}", points)


def verify_deadline_monotonic(
    spec: TaskGraphSpec,
    tables: TaskTables,
    cores: int,
    fracs: list[float],
    transition: TransitionCostModel,
    budget_s: float | None = None,
    backend: str = "auto",
) -> OracleResult:
    """Fixed cores; energy must not rise as the deadline relaxes."""
    points = []
    for frac in sorted(fracs):
        deadline_s = deadline_for(spec, tables, cores, frac, transition)
        result = solve_taskgraph(spec, tables, cores, deadline_s, transition,
                                 budget_s=budget_s, backend=backend)
        points.append((f"d{frac:g}", result["replayed"]["energy_nj"],
                       result["method"] == "milp"))
    return _monotonic("deadline-monotonic", f"{spec.name} p{cores}", points)


def run_oracle_suite(budget_s: float | None = None,
                     backend: str = "auto") -> list[OracleResult]:
    """The fixed verification battery behind ``repro taskgraph verify``."""
    transition = TransitionCostModel()
    results: list[OracleResult] = []
    for shape, tasks in (("fork-join", 5), ("layered", 6), ("random", 5)):
        spec = build_graph(shape, tasks, 0)
        tables = synthetic_tables(spec, XSCALE_3)
        for cores in (1, 2):
            results += verify_instance(spec, tables, cores, 0.5, transition,
                                       budget_s=budget_s, backend=backend)
        results.append(verify_cores_monotonic(
            spec, tables, [1, 2, 3], 0.5, transition, budget_s=budget_s,
            backend=backend))
        results.append(verify_deadline_monotonic(
            spec, tables, 2, [0.0, 0.5, 1.0], transition, budget_s=budget_s,
            backend=backend))
    return results


def fuzz_taskgraph(runs: int, seed: int = 0,
                   budget_s: float | None = None,
                   backend: str = "auto",
                   on_progress=None) -> FuzzReport:
    """Randomized instance oracle: seeded graphs, cores and deadlines."""
    rng = random.Random(("taskgraph-fuzz", runs, seed).__repr__())
    transition = TransitionCostModel()
    start = observe.clock()
    report = FuzzReport(campaign="taskgraph-fuzz", cases="instances")
    for index in range(max(0, runs)):
        shape = rng.choice(("fork-join", "layered", "random"))
        tasks = rng.randint(4, 7)
        spec = build_graph(shape, tasks, rng.randint(0, 10_000))
        tables = synthetic_tables(spec, XSCALE_3)
        cores = rng.randint(1, 3)
        frac = round(rng.uniform(0.0, 1.0), 3)
        for result in verify_instance(spec, tables, cores, frac, transition,
                                      budget_s=budget_s, backend=backend):
            report.record(result)
        report.runs += 1
        if on_progress is not None:
            on_progress(index + 1, runs, len(report.failures))
    report.elapsed_s = observe.clock() - start
    return report
