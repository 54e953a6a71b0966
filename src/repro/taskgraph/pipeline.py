"""Runtime integration: taskgraph experiments as content-addressed DAGs.

One grid point — (graph shape, task count, seed, machine, core count,
deadline fraction) — is a :class:`TaskGraphExperimentSpec` and runs as a
four-stage pipeline through the same executor, cache, journal and
manifest machinery as the single-stream experiments::

    tg-tables ──> tg-solve ──> tg-simulate ──┐
        └────────────┴──────────────────────┴─> tg-verify

``tg-tables`` is shared by every (cores, deadline) point over the same
(graph, machine) pair — kernel-backed graphs profile each kernel once
per sweep, exactly like the single-stream ``profile`` stage.  Cache
keys embed the full :func:`~repro.taskgraph.model.graph_fingerprint`
(kernel source digests included), so editing a kernel invalidates the
whole family.

:class:`TaskGraphGrid` is the family's grid value (the one behind
``repro taskgraph sweep`` and ``POST /v1/taskgraph``), and
:class:`TaskGraphExperimentSpec` declares the family the way
:class:`~repro.runtime.dag.ExperimentSpec` declares the single-stream
one (:class:`repro.runtime.dag.Experiment`): its stages, its row fields
and its queue cost.  Its task functions are the ``tg-*`` entries of
:data:`repro.runtime.dag.TASK_FNS`.  The generic graph builder, task
dispatcher and record reducer do the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import OrchestrationError
from repro.runtime import hashing
from repro.runtime.dag import Grid, MachineSpec, Stage, grid_axis
from repro.taskgraph.heuristic import deadline_for, greedy_taskgraph
from repro.taskgraph.model import GRAPH_SHAPES, TaskGraphSpec, build_graph, graph_fingerprint
from repro.taskgraph.simulate import replay
from repro.taskgraph.solve import solve_taskgraph
from repro.taskgraph.tables import TaskTables, tables_for
from repro.verify import tolerances


@dataclass(frozen=True)
class TaskGraphExperimentSpec:
    """One grid point of a taskgraph sweep."""

    shape: str
    tasks: int
    cores: int
    deadline_frac: float
    seed: int = 0
    machine: MachineSpec = field(default_factory=MachineSpec)

    def graph(self) -> TaskGraphSpec:
        """The (pure, seeded) graph this point runs."""
        return build_graph(self.shape, self.tasks, self.seed)

    @property
    def queue_cost(self) -> int:
        """Fair-queue weight: solving scales with the task count, so a
        big-graph submission must not be billed like a small one."""
        return max(1, self.tasks)

    @property
    def shared_id(self) -> str:
        """Identity of the (graph, machine) pair — shared by every
        (cores, deadline) point swept over it."""
        return (f"tg.{self.graph().name}.{self.machine.table_tag}"
                f".c{self.machine.capacitance_uf:g}")

    @property
    def experiment_id(self) -> str:
        return (f"{self.shared_id}.p{self.cores}"
                f".d{self.deadline_frac:.3f}")

    def payload(self) -> dict[str, Any]:
        """JSON-compatible worker payload."""
        return {
            "shape": self.shape,
            "tasks": self.tasks,
            "seed": self.seed,
            "cores": self.cores,
            "deadline_frac": self.deadline_frac,
            "levels": self.machine.levels,
            "capacitance_uf": self.machine.capacitance_uf,
        }

    def stages(self, solver_backend: str = "auto") -> list[Stage]:
        """``tg-tables`` (shared per graph and machine), then
        ``tg-solve``, ``tg-simulate`` and ``tg-verify`` for this point."""
        graph_fp = graph_fingerprint(self.graph())
        machine = self.machine.fingerprint()
        cores, frac, eid = self.cores, self.deadline_frac, self.experiment_id
        tables = f"tg-tables:{self.shared_id}"
        solve, simulate = f"tg-solve:{eid}", f"tg-simulate:{eid}"
        return [
            Stage("tg-tables", tables, (),
                  hashing.taskgraph_tables_key(graph_fp, machine)),
            Stage("tg-solve", solve, (tables,),
                  hashing.taskgraph_solve_key(graph_fp, machine, cores, frac),
                  solve=True),
            Stage("tg-simulate", simulate, (tables, solve),
                  hashing.taskgraph_run_key(graph_fp, machine, cores, frac)),
            Stage("tg-verify", f"tg-verify:{eid}", (tables, solve, simulate)),
        ]

    def identity_fields(self) -> dict[str, Any]:
        return {
            "family": "taskgraph",
            "graph": self.graph().name,
            "shape": self.shape,
            "graph_tasks": self.tasks,
            "seed": self.seed,
            "cores": self.cores,
            "mode_table": self.machine.table_tag,
            "capacitance_uf": self.machine.capacitance_uf,
            "deadline_frac": self.deadline_frac,
        }

    def ok_fields(self, outputs: dict[str, dict[str, Any]]) -> dict[str, Any]:
        """Grid-point-determined values only: run-varying solver facts
        (method, solve time, degradation) stay in the manifest."""
        solve = outputs["tg-solve"]
        run = outputs["tg-simulate"]["run"]
        verify = outputs["tg-verify"]
        return {
            "deadline_s": solve["deadline_s"],
            "predicted_energy_nj": solve["predicted_energy_nj"],
            "measured_energy_nj": run["energy_nj"],
            "measured_makespan_s": run["makespan_s"],
            "mode_switches": run["switches"],
            "utilization": run["utilization"],
            "greedy_energy_nj": verify["greedy_energy_nj"],
            "savings_vs_greedy": verify["savings_vs_greedy"],
            "verified": verify["ok"],
            "checks": verify["checks"],
        }


def _integer(value: Any, what: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise OrchestrationError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise OrchestrationError(
            f"{what} must be at least {minimum}, got {value}")
    return value


def _shape(name: Any) -> str:
    if name not in GRAPH_SHAPES:
        raise OrchestrationError(f"unknown task-graph shape {name!r} "
                                 f"(want one of {', '.join(GRAPH_SHAPES)})")
    return name


@dataclass(frozen=True, kw_only=True)
class TaskGraphGrid(Grid):
    """A taskgraph grid: shapes × mode tables × core counts × deadline
    fractions, over graphs of ``tasks`` tasks (at least 3: a fork-join
    graph needs a source, a worker and a sink)."""

    shapes: tuple[str, ...]
    tasks: int = 6
    cores: tuple[int, ...] = (1, 2)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._set(shapes=grid_axis(self.shapes, "graph shapes", _shape),
                  tasks=_integer(self.tasks, "tasks", 3),
                  cores=grid_axis(self.cores, "core counts",
                                  lambda n: _integer(n, "core count", 1)))

    def experiments(self) -> list[TaskGraphExperimentSpec]:
        machines = self.machines()
        return [TaskGraphExperimentSpec(shape=shape, tasks=self.tasks,
                                        cores=count, deadline_frac=frac,
                                        seed=self.seed, machine=machine)
                for shape in self.shapes for machine in machines
                for count in self.cores for frac in self.deadline_fracs]

    def canonical(self) -> dict[str, Any]:
        return {"shapes": list(self.shapes), "tasks": self.tasks,
                "cores": list(self.cores), **self.shared_fields()}

    def manifest_fields(self) -> dict[str, Any]:
        # "tasks" in the header counts the sweep's DAG tasks.
        return {"family": "taskgraph", "shapes": list(self.shapes),
                "graph_tasks": self.tasks, "cores": list(self.cores),
                **self.shared_fields()}


# -- task computations (run inside worker processes; see dag.TASK_FNS) --------


def _tg_context(spec: dict[str, Any]):
    graph = build_graph(spec["shape"], spec["tasks"], spec["seed"])
    return graph, MachineSpec.from_payload(spec).build()


def task_tables(spec: dict[str, Any], deps: dict[str, Any],
                store=None) -> dict[str, Any]:
    graph, machine = _tg_context(spec)
    tables = tables_for(graph, machine)
    return {"graph": graph.payload(), "tables": tables.payload()}


def task_solve(spec: dict[str, Any], deps: dict[str, Any],
               store=None) -> dict[str, Any]:
    graph, machine = _tg_context(spec)
    tables = TaskTables.from_payload(deps["tg-tables"]["tables"])
    transition = machine.transition_model
    deadline_s = deadline_for(graph, tables, spec["cores"],
                              spec["deadline_frac"], transition)
    import time

    t0 = time.perf_counter()
    result = solve_taskgraph(
        graph, tables, spec["cores"], deadline_s, transition,
        budget_s=spec.get("solver_budget_s"),
        backend=spec.get("solver_backend", "auto"))
    solve_time_s = time.perf_counter() - t0
    replayed = result["replayed"]
    return {
        "schedule": result["schedule"],
        "deadline_s": deadline_s,
        "predicted_energy_nj": replayed["energy_nj"],
        "predicted_makespan_s": replayed["makespan_s"],
        "objective_nj": result["objective"],
        # Anytime fallbacks are feasible but must not be memoized as
        # the optimum (same policy as single-stream "optimize").
        "_cacheable": not result["degraded"],
        "solver": {
            "status": result["status"],
            "method": result["method"],
            "solve_time_s": solve_time_s,
            "degraded": result["degraded"],
        },
    }


def task_simulate(spec: dict[str, Any], deps: dict[str, Any],
                  store=None) -> dict[str, Any]:
    graph, machine = _tg_context(spec)
    tables = TaskTables.from_payload(deps["tg-tables"]["tables"])
    run = replay(graph, tables, deps["tg-solve"]["schedule"],
                 machine.transition_model)
    return {"run": run}


def task_verify(spec: dict[str, Any], deps: dict[str, Any],
                store=None) -> dict[str, Any]:
    graph, machine = _tg_context(spec)
    tables = TaskTables.from_payload(deps["tg-tables"]["tables"])
    transition = machine.transition_model
    solve = deps["tg-solve"]
    run = deps["tg-simulate"]["run"]
    deadline_s = solve["deadline_s"]

    greedy = greedy_taskgraph(graph, tables, spec["cores"], deadline_s,
                              transition)
    greedy_energy = greedy["replayed"]["energy_nj"]
    objective = solve.get("objective_nj")
    checks = tolerances.taskgraph_checks(
        run["makespan_s"], deadline_s, run["energy_nj"],
        [] if objective is None else [objective], greedy_energy,
        solve["solver"]["method"])
    # tg-solve and tg-simulate both price the schedule through the same
    # replay oracle, so prediction must match *exactly*.
    checks["energy_predicted"] = (
        run["energy_nj"] == solve["predicted_energy_nj"])
    savings = (1.0 - run["energy_nj"] / greedy_energy
               if greedy_energy > 0 else None)
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "greedy_energy_nj": greedy_energy,
        "savings_vs_greedy": savings,
    }
