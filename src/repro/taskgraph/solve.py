"""The anytime solve controller for one taskgraph instance.

Three tiers, mirroring the single-stream pipeline's budget ladder:

1. MILP solved to proven optimality — the normal path;
2. MILP hit its ``budget_s`` time limit but carries a feasible
   incumbent — decode and use it, flagged ``degraded``;
3. no usable incumbent — fall back to the greedy heuristic, flagged
   ``degraded`` (the runtime marks degraded results non-cacheable so a
   later run with more budget can improve them).

All tiers report their energy through the same
:func:`repro.taskgraph.simulate.replay`, so results are comparable
across tiers and with ``tg-simulate``.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ScheduleError
from repro.simulator.dvs import TransitionCostModel
from repro.taskgraph.heuristic import greedy_taskgraph
from repro.taskgraph.milp import build_taskgraph_milp
from repro.taskgraph.model import TaskGraphSpec
from repro.taskgraph.simulate import replay
from repro.taskgraph.tables import TaskTables
from repro.verify import tolerances


def solve_taskgraph(
    spec: TaskGraphSpec,
    tables: TaskTables,
    cores: int,
    deadline_s: float,
    transition: TransitionCostModel,
    budget_s: float | None = None,
    backend: str = "auto",
) -> dict[str, Any]:
    """Solve one instance; always returns a deadline-feasible schedule.

    Returns a dict with ``schedule``, ``replayed`` (the schedule's
    replay summary), ``method`` (``milp`` / ``milp-incumbent`` /
    ``greedy``), ``status`` (solver status string), ``objective``
    (the MILP objective at the decoded schedule, priced exactly by
    :meth:`TgFormulation.price`), ``solver_objective`` (the solver's own
    objective; both None on the greedy tier), ``degraded``.

    Raises:
        ScheduleError: no tier produced a deadline-feasible schedule.
    """
    formulation = build_taskgraph_milp(
        spec, tables, cores, deadline_s, transition)
    options: dict[str, Any] = {}
    if budget_s is not None:
        options["time_limit"] = budget_s
    solution = formulation.solve(backend=backend, **options)

    if solution.ok or solution.has_incumbent:
        schedule = formulation.extract_schedule(
            solution, allow_incumbent=True)
        replayed = replay(spec, tables, schedule, transition)
        if tolerances.replay_deadline_met(replayed["makespan_s"], deadline_s):
            return {
                "schedule": schedule,
                "replayed": replayed,
                "method": "milp" if solution.ok else "milp-incumbent",
                "status": solution.status.value,
                "objective": formulation.price(schedule),
                "solver_objective": solution.objective,
                "degraded": not solution.ok,
            }
        # An incumbent that violates the deadline on exact replay (LP
        # tolerance slack) is not trustworthy — drop to greedy.
    try:
        greedy = greedy_taskgraph(spec, tables, cores, deadline_s, transition)
    except ScheduleError as exc:
        raise ScheduleError(
            f"taskgraph instance {spec.name!r} p{cores} "
            f"d={deadline_s:.6g}s: MILP status "
            f"{solution.status.value!r} and greedy infeasible: {exc}"
        ) from exc
    return {
        "schedule": greedy["schedule"],
        "replayed": greedy["replayed"],
        "method": "greedy",
        "status": solution.status.value,
        "objective": None,
        "solver_objective": None,
        "degraded": True,
    }
