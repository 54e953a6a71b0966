"""Experiment task DAGs.

One grid point of the paper's evaluation — (workload, input category,
seed, mode table, deadline fraction) — is an :class:`ExperimentSpec`,
and runs as a four-stage pipeline mirroring the paper's Figure 13 flow::

    profile ──┬─> optimize ──> simulate ──┐
              └───────────────────────────┴─> verify

``profile`` simulates the program once per mode and carries the Section
3.2 parameters read off its fastest-mode run; ``verify`` checks the
replay and derives the single-mode baseline and the analytical savings
bounds from the profile.  Programs compile inside each task through the
per-process compile cache, so compilation is not a stage of its own.

:func:`build_task_graph` merges the pipelines of a whole sweep into one
DAG, **deduplicating shared stages**: every experiment on ``gsm`` with
the same inputs and machine shares a single ``profile`` task, so a
4-deadline sweep profiles each workload once, not four times.  Task ids
double as single-flight locks — the executor runs each id exactly once
per sweep regardless of how many experiments depend on it.

Tasks carry JSON-only payloads (specs in, artifact dicts out) so they
cross process boundaries and land in the content-addressed store
unchanged.  :func:`execute_task` is the single worker entry point that
maps a task kind to its computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core import DVSOptimizer
from repro.core.analytical import savings_ratio_discrete
from repro.core.continuous import continuous_bound
from repro.errors import OrchestrationError, ScheduleError
from repro.profiling.serialize import (
    profile_from_dict,
    profile_to_dict,
    run_summary_from_dict,
    run_summary_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.runtime import hashing
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.simulator.dvs import make_mode_table
from repro.verify import tolerances
from repro.workloads import compile_workload, get_workload

#: Pipeline stages in dependency order.
TASK_KINDS = ("profile", "optimize", "simulate", "verify")
#: Kinds that run without numpy or scipy: ``verify`` only reads its deps.
#: Every other kind (taskgraph kinds included) simulates or solves.
LIGHT_KINDS = ("verify",)


@dataclass(frozen=True)
class MachineSpec:
    """A JSON-representable machine description (mirrors the CLI flags)."""

    levels: int | None = None  # None -> the paper's XScale-3 table
    capacitance_uf: float = 10.0
    # The fast path is bit-exact, so this is an execution knob, not part
    # of the machine's observable identity: it must never enter cache
    # keys, experiment ids or results.jsonl records.
    fastpath: bool = True

    def build(self) -> Machine:
        table = XSCALE_3 if self.levels is None else make_mode_table(self.levels)
        return Machine(
            SCALE_CONFIG,
            table,
            TransitionCostModel(capacitance_f=self.capacitance_uf * 1e-6),
            fastpath=self.fastpath,
        )

    @property
    def table_tag(self) -> str:
        return "xscale-3" if self.levels is None else f"alpha-{self.levels}"


@dataclass(frozen=True)
class ExperimentSpec:
    """One grid point of a sweep."""

    workload: str
    deadline_frac: float
    category: str | None = None
    seed: int = 0
    machine: MachineSpec = field(default_factory=MachineSpec)

    def resolved_category(self) -> str:
        """The concrete input category (a workload's first when unset),
        so explicit-default and implicit-default grid points share cache
        entries and ids."""
        return self.category or get_workload(self.workload).categories[0]

    @property
    def shared_id(self) -> str:
        """Identity of the (program, input, machine) triple — the part
        shared by every deadline fraction swept over it."""
        return (f"{self.workload}.{self.resolved_category()}.s{self.seed}"
                f".{self.machine.table_tag}.c{self.machine.capacitance_uf:g}")

    @property
    def experiment_id(self) -> str:
        return f"{self.shared_id}.d{self.deadline_frac:.3f}"

    def payload(self) -> dict[str, Any]:
        """JSON-compatible worker payload."""
        return {
            "workload": self.workload,
            "category": self.resolved_category(),
            "seed": self.seed,
            "levels": self.machine.levels,
            "capacitance_uf": self.machine.capacitance_uf,
            "deadline_frac": self.deadline_frac,
            "fastpath": self.machine.fastpath,
        }


@dataclass
class Task:
    """One node of the sweep DAG."""

    task_id: str
    kind: str
    spec: dict[str, Any]
    deps: tuple[str, ...] = ()
    cache_key: str | None = None  # None -> never memoized
    experiments: tuple[str, ...] = ()  # experiment ids needing this task


@dataclass
class TaskGraph:
    """A validated DAG of tasks plus the experiments they serve."""

    tasks: dict[str, Task]
    experiments: list[ExperimentSpec]

    def validate(self) -> None:
        """Reject dangling dependencies and cycles."""
        for task in self.tasks.values():
            for dep in task.deps:
                if dep not in self.tasks:
                    raise OrchestrationError(
                        f"task {task.task_id!r} depends on unknown task {dep!r}"
                    )
        self.topo_order()

    def topo_order(self) -> list[str]:
        """Kahn topological order; raises on cycles."""
        indegree = {tid: len(task.deps) for tid, task in self.tasks.items()}
        dependents: dict[str, list[str]] = {tid: [] for tid in self.tasks}
        for task in self.tasks.values():
            for dep in task.deps:
                dependents[dep].append(task.task_id)
        ready = sorted(tid for tid, deg in indegree.items() if deg == 0)
        order: list[str] = []
        while ready:
            tid = ready.pop(0)
            order.append(tid)
            newly = []
            for succ in dependents[tid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    newly.append(succ)
            # Sorted insertion keeps the order deterministic for any
            # completion pattern, which keeps manifests reproducible.
            ready = sorted(ready + newly)
        if len(order) != len(self.tasks):
            cyclic = sorted(set(self.tasks) - set(order))
            raise OrchestrationError(f"task graph has a cycle through {cyclic}")
        return order

    def tasks_for_experiment(self, experiment_id: str) -> list[Task]:
        return [t for t in self.tasks.values() if experiment_id in t.experiments]


def build_task_graph(
    experiments: list[ExperimentSpec],
    solver_budget_s: float | None = None,
    solver_backend: str = "auto",
    continuous_prune: bool = False,
) -> TaskGraph:
    """Merge per-experiment pipelines into one deduplicated DAG.

    Args:
        experiments: the grid points to run.
        solver_budget_s: optional wall-clock budget for each ``optimize``
            task (anytime solving with fallback tiers).  Cache keys are
            unchanged: a budgeted solve that still proves optimality is
            the same artifact as an unbudgeted one, and degraded solves
            are never cached (``_cacheable``).
        solver_backend: MILP backend for ``optimize`` tasks ("auto",
            "scipy", "native").  Like ``solver_budget_s`` (and the
            fastpath knob), an execution hint excluded from cache keys:
            every backend must produce the identical optimum, and the
            certificate/replay checks enforce that.  The "continuous"
            backend is the exception — it returns a different
            (round-up) schedule by design, so its optimize/simulate
            artifacts are keyed under ``method="continuous"``.
        continuous_prune: warm-start the native branch and bound with
            the continuous round-up incumbent.  An execution hint: the
            pruner may only skip work, never change the answer (enforced
            by the fuzz battery), so cache keys are unchanged.
    """
    if not experiments:
        raise OrchestrationError("sweep grid is empty")
    # The taskgraph family builds its own pipelines; mixed grids merge
    # both DAGs (task ids are disjoint by construction: tg-* prefixes).
    tg_specs = [e for e in experiments
                if getattr(e, "family", None) == "taskgraph"]
    if tg_specs:
        from repro.taskgraph.pipeline import build_tg_task_graph

        tg_graph = build_tg_task_graph(tg_specs,
                                       solver_budget_s=solver_budget_s,
                                       solver_backend=solver_backend)
        rest = [e for e in experiments
                if getattr(e, "family", None) != "taskgraph"]
        if not rest:
            return tg_graph
        merged = build_task_graph(rest, solver_budget_s=solver_budget_s,
                                  solver_backend=solver_backend,
                                  continuous_prune=continuous_prune)
        merged.tasks.update(tg_graph.tasks)
        merged.experiments.extend(tg_graph.experiments)
        merged.validate()
        return merged
    seen_ids = set()
    for exp in experiments:
        if exp.experiment_id in seen_ids:
            raise OrchestrationError(
                f"duplicate grid point {exp.experiment_id!r}"
            )
        seen_ids.add(exp.experiment_id)

    tasks: dict[str, Task] = {}

    def ensure(task_id: str, kind: str, spec: dict[str, Any],
               deps: tuple[str, ...], cache_key: str | None,
               experiment_id: str) -> str:
        task = tasks.get(task_id)
        if task is None:
            tasks[task_id] = Task(task_id=task_id, kind=kind, spec=spec,
                                  deps=deps, cache_key=cache_key,
                                  experiments=(experiment_id,))
        elif experiment_id not in task.experiments:
            task.experiments += (experiment_id,)
        return task_id

    for exp in experiments:
        eid = exp.experiment_id
        spec = exp.payload()
        source = get_workload(exp.workload).source
        machine = exp.machine.build()
        category, seed, frac = exp.resolved_category(), exp.seed, exp.deadline_frac

        profile_id = ensure(
            f"profile:{exp.shared_id}", "profile", spec, (),
            hashing.profile_key(source, category, seed, machine), eid)
        opt_spec = dict(spec)
        if solver_budget_s is not None:
            opt_spec["solver_budget_s"] = solver_budget_s
        if solver_backend != "auto":
            opt_spec["solver_backend"] = solver_backend
        if continuous_prune:
            opt_spec["continuous_prune"] = True
        if opt_spec == spec:
            opt_spec = spec
        method = "continuous" if solver_backend == "continuous" else "milp"
        optimize_id = ensure(
            f"optimize:{eid}", "optimize", opt_spec, (profile_id,),
            hashing.schedule_key(source, category, seed, machine, frac,
                                 method=method), eid)
        simulate_id = ensure(
            f"simulate:{eid}", "simulate", spec, (optimize_id,),
            hashing.run_summary_key(source, category, seed, machine, frac,
                                    method=method), eid)
        ensure(
            f"verify:{eid}", "verify", spec,
            (profile_id, optimize_id, simulate_id), None, eid)

    graph = TaskGraph(tasks=tasks, experiments=list(experiments))
    graph.validate()
    return graph


# -- task computations (run inside worker processes) ------------------------------


def _context(spec: dict[str, Any]):
    workload = get_workload(spec["workload"])
    cfg = compile_workload(spec["workload"])
    machine = MachineSpec(spec["levels"], spec["capacitance_uf"],
                          spec.get("fastpath", True)).build()
    inputs = workload.inputs(category=spec["category"], seed=spec["seed"])
    return workload, cfg, machine, inputs, workload.registers()


def _task_profile(spec: dict[str, Any], deps: dict[str, Any]) -> dict[str, Any]:
    _, cfg, machine, inputs, registers = _context(spec)
    profile = DVSOptimizer(machine).profile(cfg, inputs=inputs, registers=registers)
    return {"profile": profile_to_dict(profile)}


def _task_optimize(spec: dict[str, Any], deps: dict[str, Any]) -> dict[str, Any]:
    _, cfg, machine, _, _ = _context(spec)
    profile = profile_from_dict(deps["profile"]["profile"])
    deadline = profile.deadline_at(spec["deadline_frac"])
    # Consecutive deadlines of the same (program, input, machine) triple
    # share a warm-start key: the native solver hands the optimal basis
    # and branching pseudocosts from one deadline to the next through
    # the per-process registry.  Ephemeral execution state — never
    # cached, never serialized.
    table_tag = ("xscale-3" if spec["levels"] is None
                 else f"alpha-{spec['levels']}")
    warm_key = (f"{spec['workload']}.{spec['category']}.s{spec['seed']}"
                f".{table_tag}.c{spec['capacitance_uf']:g}")
    solver_options: dict[str, Any] = {"warm_key": warm_key}
    if spec.get("continuous_prune"):
        solver_options["continuous_prune"] = True
    backend = spec.get("solver_backend", "auto")
    optimizer = DVSOptimizer(
        machine,
        backend=backend,
        solver_options=solver_options,
    )
    outcome = optimizer.optimize(
        cfg, deadline, profile=profile, budget_s=spec.get("solver_budget_s")
    )
    # The continuous method is FEASIBLE by contract (a round-up, not a
    # proven optimum) yet fully deterministic, so when it was *asked for*
    # its output is neither degraded nor uncacheable — a starved MILP
    # falling back to the continuous tier, by contrast, is both.
    continuous_requested = (backend == "continuous"
                            and outcome.fallback_tier == "continuous")
    degraded = not outcome.solution.ok and not continuous_requested
    return {
        "schedule": schedule_to_dict(outcome.schedule),
        "deadline_s": deadline,
        # float() strips numpy scalars: the native solver path hands back
        # np.float64 and journal/cache digests require pure-JSON payloads.
        "predicted_energy_nj": float(outcome.predicted_energy_nj),
        "predicted_time_s": float(outcome.predicted_time_s),
        # A fallback schedule from a starved solver is feasible and
        # certified, but must not be memoized as if it were the optimum.
        "_cacheable": not degraded,
        "solver": {
            "status": outcome.solution.status.value,
            "solve_time_s": outcome.solve_time_s,
            "num_independent_edges": outcome.num_independent_edges,
            "num_assignments": len(outcome.schedule.assignment),
            "fallback_tier": outcome.fallback_tier,
            "optimality_gap": outcome.optimality_gap,
            "degraded": degraded,
        },
    }


def _task_simulate(spec: dict[str, Any], deps: dict[str, Any]) -> dict[str, Any]:
    _, cfg, machine, inputs, registers = _context(spec)
    schedule = schedule_from_dict(deps["optimize"]["schedule"])
    run = DVSOptimizer(machine).verify(cfg, schedule, inputs=inputs, registers=registers)
    return {"run": run_summary_to_dict(run)}


def _task_verify(spec: dict[str, Any], deps: dict[str, Any]) -> dict[str, Any]:
    profile = profile_from_dict(deps["profile"]["profile"])
    machine = MachineSpec(spec["levels"], spec["capacitance_uf"],
                          spec.get("fastpath", True)).build()
    optimize = deps["optimize"]
    run = run_summary_from_dict(deps["simulate"]["run"])
    deadline = optimize["deadline_s"]

    checks: dict[str, bool] = {}
    checks["deadline_met"] = (
        run["wall_time_s"] <= deadline * (1 + tolerances.DEADLINE_REL_SLACK)
    )
    energy_err = float(
        abs(run["cpu_energy_nj"] - optimize["predicted_energy_nj"])
        / max(1.0, optimize["predicted_energy_nj"])
    )
    checks["energy_predicted"] = (
        energy_err <= tolerances.ENERGY_PREDICTION_REL_TOL
    )
    checks["result_preserved"] = run["return_value"] == profile.return_value

    baseline_mode = baseline_energy = savings = None
    try:
        baseline_mode, baseline_energy = DVSOptimizer(machine).best_single_mode(
            profile, deadline
        )
        if baseline_energy > 0:
            savings = 1.0 - run["cpu_energy_nj"] / baseline_energy
    except ScheduleError:
        pass  # deadline below the fastest single mode: no baseline exists

    # The paper's Section 3 discrete-mode bound, from the parameters the
    # profile read off its fastest-mode run.
    bound = savings_ratio_discrete(profile.params, deadline, machine.mode_table)
    # The achievable-optimum counterpart: energy of the exact continuous
    # schedule (Li-Yao-Yuan) and its savings against the best single
    # mode, the paper's Section 3 "opportunity" restated on profiled
    # numbers.  Absent (None) when the deadline or profile is outside
    # the engine's regime — an absence, never a crash.
    continuous_energy = continuous_savings = None
    try:
        cont = continuous_bound(profile, machine.mode_table, deadline)
        continuous_energy = float(cont.energy_nj)
        if baseline_energy is not None and baseline_energy > 0:
            continuous_savings = float(1.0 - cont.energy_nj / baseline_energy)
    except ScheduleError:
        pass

    return {
        "ok": all(checks.values()),
        "checks": checks,
        "energy_prediction_rel_err": energy_err,
        "baseline_mode": baseline_mode,
        "baseline_energy_nj": baseline_energy,
        "savings_vs_single_mode": savings,
        # nan (infeasible) is not JSON; record the absence explicitly.
        "savings_bound": None if bound != bound else bound,
        "continuous_energy_nj": continuous_energy,
        "continuous_savings_bound": continuous_savings,
    }


_TASK_FNS: dict[str, Callable[[dict[str, Any], dict[str, Any]], dict[str, Any]]] = {
    "profile": _task_profile,
    "optimize": _task_optimize,
    "simulate": _task_simulate,
    "verify": _task_verify,
}


def load_task_stack() -> None:
    """Import the numeric stack that simulating and solving tasks use:
    numpy (input generators, model building) and scipy (the backends).

    The executor calls this in the parent before it forks a worker pool
    for such tasks, so the workers inherit the modules instead of each
    importing them.  A sweep whose tasks are all light never calls it.
    """
    import repro.core.milp.formulation  # noqa: F401
    import repro.verify.certificate  # noqa: F401
    import repro.workloads.inputs  # noqa: F401
    from repro.solver import load_backends

    load_backends()


def execute_task(kind: str, spec: dict[str, Any],
                 deps: dict[str, Any]) -> dict[str, Any]:
    """Run one task kind; ``deps`` maps dep *kind* to its output dict."""
    if kind.startswith("tg-"):
        from repro.taskgraph.pipeline import execute_tg_task

        return execute_tg_task(kind, spec, deps)
    try:
        fn = _TASK_FNS[kind]
    except KeyError:
        raise OrchestrationError(f"unknown task kind {kind!r}") from None
    return fn(spec, deps)
