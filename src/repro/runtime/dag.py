"""Experiment task DAGs.

One grid point of the paper's evaluation — (workload, input category,
seed, mode table, deadline fraction) — is an :class:`ExperimentSpec`,
and runs as a four-stage pipeline mirroring the paper's Figure 13 flow::

    profile ──┬─> optimize ──> simulate ──┐
              └───────────────────────────┴─> verify

``profile`` simulates the program once, recording its block sequence
and cache outcomes, re-times that recording for every other mode, and
carries the Section 3.2 parameters read off its fastest-mode run.  With
an artifact store it also writes the recording as a ``stream`` side
artifact, which only ``simulate`` reads: the scheduled program is timed
by a replay of the recording (bit-identical to simulating it), and is
simulated in full only when no stream is at hand.  ``verify`` checks the
scheduled run and derives the single-mode baseline and the analytical
savings bounds from the profile.  What it derives from a profile is pure,
so each process memoizes it under the profile's content address (its
cache key), the deadline and the mode table; the checks themselves run
on every call.  Programs compile inside each task through the
per-process compile cache, so compilation is not a stage of its own.

:func:`build_task_graph` merges the pipelines of a whole sweep into one
DAG, **deduplicating shared stages**: every experiment on ``gsm`` with
the same inputs and machine shares a single ``profile`` task, so a
4-deadline sweep profiles each workload once, not four times.  Task ids
double as single-flight locks — the executor runs each id exactly once
per sweep regardless of how many experiments depend on it.

Tasks carry JSON-only payloads (specs in, artifact dicts out) so they
cross process boundaries and land in the content-addressed store
unchanged.  The stream never travels in a payload: it goes from the
``profile`` worker to the store and from the store to the ``simulate``
worker, so the transport, the journal and ``results.jsonl`` never see
it.  :func:`execute_task` is the single worker entry point that maps a
task kind to its computation.

Experiment families.  :class:`ExperimentSpec` is one family; the
multi-core task graphs of :mod:`repro.taskgraph.pipeline` are another.
A family's spec class declares everything the runtime needs (see
:class:`Experiment`): its stages (:meth:`ExperimentSpec.stages`), their
computations (entries of :data:`TASK_FNS`), the identity and ``ok``
fields of its ``results.jsonl`` rows, and its fair-queue cost.
:func:`build_task_graph`, :func:`execute_task` and
:func:`repro.runtime.manifest.experiment_record` read only that
declaration, so one graph may mix families.
"""

from __future__ import annotations

import functools
import importlib
import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol

from repro import observe
from repro.core.analytical import savings_ratio_discrete
from repro.core.continuous import continuous_bound
from repro.errors import CacheError, OrchestrationError, ProfileError, ScheduleError
from repro.profiling.serialize import (
    profile_from_dict,
    profile_to_dict,
    run_summary_from_dict,
    run_summary_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    stream_from_dict,
    stream_to_dict,
)
from repro.runtime import hashing
from repro.runtime.cache import BoundedLRU, read_only_copy
from repro.simulator.config import SCALE_CONFIG
from repro.simulator.dvs import ModeTable, TransitionCostModel, XSCALE_3, make_mode_table
from repro.verify import tolerances
from repro.workloads import compile_workload, get_workload

if TYPE_CHECKING:
    from repro.simulator.machine import ExecutionStream, Machine

logger = logging.getLogger("repro.dag")

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
        from repro.simulator.machine import Machine

        return Machine(SCALE_CONFIG, self.mode_table(), self.transition_model(),
                       fastpath=self.fastpath)

    def mode_table(self) -> ModeTable:
        """The machine's DVS mode table, without building the machine."""
        return XSCALE_3 if self.levels is None else make_mode_table(self.levels)

    def transition_model(self) -> TransitionCostModel:
        return TransitionCostModel(capacitance_f=self.capacitance_uf * 1e-6)

    @functools.lru_cache(maxsize=64)
    def fingerprint(self) -> dict[str, Any]:
        """:func:`~repro.runtime.hashing.machine_fingerprint` of the
        machine :meth:`build` would return, computed from its parts
        (building one loads the simulator) once per machine and shared
        read-only: a sweep's graph needs it for three keys per grid
        point."""
        return read_only_copy(hashing.fingerprint_parts(
            SCALE_CONFIG, self.mode_table(), self.transition_model()))

    @property
    def table_tag(self) -> str:
        return "xscale-3" if self.levels is None else f"alpha-{self.levels}"

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> MachineSpec:
        """The machine a worker payload (either family's) describes."""
        return cls(payload["levels"], payload["capacitance_uf"],
                   payload.get("fastpath", True))


@dataclass(frozen=True)
class Stage:
    """One task of a grid point's pipeline, as its family declares it."""

    kind: str
    task_id: str
    deps: tuple[str, ...] = ()
    cache_key: str | None = None  # None -> never memoized
    solve: bool = False  # the stage that takes the sweep's solver options


class Experiment(Protocol):
    """What an experiment family's spec class declares.

    The runtime reads nothing else of a spec: no code outside the
    family's module asks which family a spec belongs to.
    """

    #: Fair-queue weight of one grid point (``ParsedRequest.cost``).
    queue_cost: int

    @property
    def experiment_id(self) -> str: ...

    def payload(self) -> dict[str, Any]:
        """JSON-compatible worker payload, the ``spec`` of every task."""

    def stages(self, solver_backend: str) -> list[Stage]:
        """The pipeline in dependency order; shared stages share ids."""

    def identity_fields(self) -> dict[str, Any]:
        """The grid point's fields of its ``results.jsonl`` row."""

    def ok_fields(self, outputs: dict[str, dict[str, Any]]) -> dict[str, Any]:
        """Row fields of a run whose tasks all succeeded, from the task
        outputs by kind; ``verified`` and ``checks`` among them."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One grid point of a sweep."""

    workload: str
    deadline_frac: float
    category: str | None = None
    seed: int = 0
    machine: MachineSpec = field(default_factory=MachineSpec)

    queue_cost = 1

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

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> ExperimentSpec:
        return cls(payload["workload"], payload["deadline_frac"],
                   payload["category"], payload["seed"],
                   MachineSpec.from_payload(payload))

    def profile_key(self) -> str:
        """Content address of the grid point's ``profile`` artifact."""
        return hashing.profile_key(get_workload(self.workload).source,
                                   self.resolved_category(), self.seed,
                                   self.machine.fingerprint())

    def stages(self, solver_backend: str = "auto") -> list[Stage]:
        """``profile`` (shared across deadlines), then ``optimize``,
        ``simulate`` and ``verify`` for this deadline."""
        source = get_workload(self.workload).source
        machine = self.machine.fingerprint()
        category, seed, frac = self.resolved_category(), self.seed, self.deadline_frac
        # The continuous backend's round-up is another schedule than the
        # MILP optimum, so its artifacts are keyed apart.
        method = "continuous" if solver_backend == "continuous" else "milp"
        eid = self.experiment_id
        profile = f"profile:{self.shared_id}"
        optimize, simulate = f"optimize:{eid}", f"simulate:{eid}"
        return [
            Stage("profile", profile, (), self.profile_key()),
            Stage("optimize", optimize, (profile,),
                  hashing.schedule_key(source, category, seed, machine, frac,
                                       method=method), solve=True),
            Stage("simulate", simulate, (optimize,),
                  hashing.run_summary_key(source, category, seed, machine,
                                          frac, method=method)),
            Stage("verify", f"verify:{eid}", (profile, optimize, simulate)),
        ]

    def identity_fields(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "category": self.category or "default",
            "seed": self.seed,
            "mode_table": self.machine.table_tag,
            "capacitance_uf": self.machine.capacitance_uf,
            "deadline_frac": self.deadline_frac,
        }

    def ok_fields(self, outputs: dict[str, dict[str, Any]]) -> dict[str, Any]:
        optimize = outputs["optimize"]
        run = outputs["simulate"]["run"]
        verify = outputs["verify"]
        return {
            "deadline_s": optimize["deadline_s"],
            "savings_bound": verify["savings_bound"],
            "continuous_energy_nj": verify["continuous_energy_nj"],
            "continuous_savings_bound": verify["continuous_savings_bound"],
            "predicted_energy_nj": optimize["predicted_energy_nj"],
            "predicted_time_s": optimize["predicted_time_s"],
            "measured_energy_nj": run["cpu_energy_nj"],
            "measured_time_s": run["wall_time_s"],
            "mode_transitions": run["mode_transitions"],
            "return_value": run["return_value"],
            "verified": verify["ok"],
            "checks": verify["checks"],
            "baseline_mode": verify["baseline_mode"],
            "baseline_energy_nj": verify["baseline_energy_nj"],
            "savings_vs_single_mode": verify["savings_vs_single_mode"],
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
    experiments: list[Experiment]

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
    experiments: list[Experiment],
    solver_budget_s: float | None = None,
    solver_backend: str = "auto",
    continuous_prune: bool = False,
) -> TaskGraph:
    """Merge per-experiment pipelines into one deduplicated DAG.

    Args:
        experiments: the grid points to run, of any family.
        solver_budget_s: optional wall-clock budget for each solve stage
            (anytime solving with fallback tiers).  Cache keys are
            unchanged: a budgeted solve that still proves optimality is
            the same artifact as an unbudgeted one, and degraded solves
            are never cached (``_cacheable``).
        solver_backend: MILP backend for solve stages ("auto", "scipy",
            "native").  Like ``solver_budget_s`` (and the fastpath knob),
            an execution hint excluded from cache keys: every backend
            must produce the identical optimum, and the certificate and
            replay checks enforce that.  The "continuous" backend is the
            exception — it returns a different (round-up) schedule by
            design, so a family keys its artifacts apart (``stages``).
        continuous_prune: warm-start the native branch and bound with
            the continuous round-up incumbent.  An execution hint: the
            pruner may only skip work, never change the answer (enforced
            by the fuzz battery), so cache keys are unchanged.
    """
    if not experiments:
        raise OrchestrationError("sweep grid is empty")
    solver_options: dict[str, Any] = {}
    if solver_budget_s is not None:
        solver_options["solver_budget_s"] = solver_budget_s
    if solver_backend != "auto":
        solver_options["solver_backend"] = solver_backend
    if continuous_prune:
        solver_options["continuous_prune"] = True

    tasks: dict[str, Task] = {}
    seen_ids = set()
    for exp in experiments:
        eid = exp.experiment_id
        if eid in seen_ids:
            raise OrchestrationError(f"duplicate grid point {eid!r}")
        seen_ids.add(eid)
        spec = exp.payload()
        solve_spec = {**spec, **solver_options} if solver_options else spec
        for stage in exp.stages(solver_backend):
            task = tasks.get(stage.task_id)
            if task is None:
                tasks[stage.task_id] = Task(
                    task_id=stage.task_id, kind=stage.kind,
                    spec=solve_spec if stage.solve else spec,
                    deps=stage.deps, cache_key=stage.cache_key,
                    experiments=(eid,))
            elif eid not in task.experiments:
                task.experiments += (eid,)

    graph = TaskGraph(tasks=tasks, experiments=list(experiments))
    graph.validate()
    return graph


# -- task computations (run inside worker processes) ------------------------------


def _context(spec: dict[str, Any]):
    workload = get_workload(spec["workload"])
    cfg = compile_workload(spec["workload"])
    machine = MachineSpec.from_payload(spec).build()
    inputs = workload.inputs(category=spec["category"], seed=spec["seed"])
    return workload, cfg, machine, inputs, workload.registers()


def _stream_key(spec: dict[str, Any], machine: Machine) -> str:
    return hashing.stream_key(get_workload(spec["workload"]).source,
                              spec["category"], spec["seed"], machine)


def _task_profile(spec: dict[str, Any], deps: dict[str, Any],
                  store=None) -> dict[str, Any]:
    from repro.core.scheduler import DVSOptimizer
    from repro.simulator.machine import ExecutionStream

    _, cfg, machine, inputs, registers = _context(spec)
    stream = ExecutionStream() if store is not None else None
    profile = DVSOptimizer(machine).profile(cfg, inputs=inputs, registers=registers,
                                            record=stream)
    if stream is not None and stream.base is not None:
        # A side artifact: losing it only costs ``simulate`` a full run.
        key = _stream_key(spec, machine)
        try:
            store.put(key, stream_to_dict(stream, key))
        except CacheError as error:
            observe.add("profiling.stream.write_failed")
            logger.warning("%s: stream not stored: %s", cfg.name, error)
    return {"profile": profile_to_dict(profile)}


def _load_stream(spec: dict[str, Any], cfg, machine: Machine,
                 store) -> ExecutionStream | None:
    """The profiling run's recording of this program, or None (counted
    under ``verify.full_run.<why>``) when ``simulate`` must run in full."""
    from repro.perf.engine import fastpath_disabled_env

    if not machine.fastpath or fastpath_disabled_env():
        why = "fastpath_off"
    elif store is None:
        why = "no_store"
    else:
        key = _stream_key(spec, machine)
        document = store.get(key)
        if document is None:
            why = "miss"
        else:
            try:
                return stream_from_dict(document, key, cfg, machine.config)
            except ProfileError as error:
                logger.warning("%s: stream refused: %s", cfg.name, error)
                why = "refused"
    observe.add(f"verify.full_run.{why}")
    return None


def _task_optimize(spec: dict[str, Any], deps: dict[str, Any],
                   store=None) -> dict[str, Any]:
    from repro.core.scheduler import DVSOptimizer

    _, cfg, machine, _, _ = _context(spec)
    profile = profile_from_dict(deps["profile"]["profile"])
    deadline = profile.deadline_at(spec["deadline_frac"])
    # Consecutive deadlines of the same (program, input, machine) triple
    # share a warm-start key: the native solver hands the optimal basis
    # and branching pseudocosts from one deadline to the next through
    # the per-process registry.  Ephemeral execution state — never
    # cached, never serialized.
    solver_options: dict[str, Any] = {
        "warm_key": ExperimentSpec.from_payload(spec).shared_id}
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


def _task_simulate(spec: dict[str, Any], deps: dict[str, Any],
                   store=None) -> dict[str, Any]:
    from repro.core.scheduler import DVSOptimizer

    _, cfg, machine, inputs, registers = _context(spec)
    schedule = schedule_from_dict(deps["optimize"]["schedule"])
    stream = _load_stream(spec, cfg, machine, store)
    run = DVSOptimizer(machine).verify(cfg, schedule, inputs=inputs,
                                       registers=registers, stream=stream)
    return {"run": run_summary_to_dict(run)}


#: Per-process memos of what ``verify`` derives from a profile: the
#: decoded profile, by its content address, and its two savings bounds,
#: by (content address, deadline, mode-table values).  Entry-bounded: a
#: decoded suite profile is tens of kB, a bound pair two floats.
PROFILE_MEMO_ENTRIES = 32
BOUND_MEMO_ENTRIES = 1024
_profiles = BoundedLRU(PROFILE_MEMO_ENTRIES)
_bounds = BoundedLRU(BOUND_MEMO_ENTRIES)


def _profile_bounds(profile_key: str, profile, deadline: float,
                    table: ModeTable) -> tuple[float, float | None]:
    """(Section 3 discrete savings bound, continuous optimum energy).

    The bound is nan when the discrete model is infeasible; the energy
    is None when the deadline or profile is outside the continuous
    engine's regime.  Both are pure in the memo key.
    """
    key = (profile_key, deadline,
           tuple((p.frequency_hz, p.voltage) for p in table))
    memo = _bounds.get(key)
    if memo is not None:
        observe.add("verify.bound_memo_hits")
        return memo
    # The paper's Section 3 discrete-mode bound, from the parameters the
    # profile read off its fastest-mode run.
    bound = savings_ratio_discrete(profile.params, deadline, table)
    # The achievable-optimum counterpart: energy of the exact continuous
    # schedule (Li-Yao-Yuan), the paper's Section 3 "opportunity"
    # restated on profiled numbers.
    try:
        continuous = float(continuous_bound(profile, table, deadline).energy_nj)
    except ScheduleError:
        continuous = None
    _bounds.put(key, (bound, continuous))
    return bound, continuous


def _task_verify(spec: dict[str, Any], deps: dict[str, Any],
                 store=None) -> dict[str, Any]:
    document = deps["profile"]["profile"]
    table = MachineSpec.from_payload(spec).mode_table()
    optimize = deps["optimize"]
    run = run_summary_from_dict(deps["simulate"]["run"])
    deadline = optimize["deadline_s"]

    predicted = optimize["predicted_energy_nj"]
    checks = {
        "deadline_met": tolerances.deadline_met(run["wall_time_s"], deadline),
        "energy_predicted": tolerances.energy_matches(run["cpu_energy_nj"],
                                                      predicted),
        "result_preserved": run["return_value"] == document.get("return_value"),
    }
    energy_err = float(tolerances.rel_err(run["cpu_energy_nj"], predicted))

    profile_key = ExperimentSpec.from_payload(spec).profile_key()
    profile = _profiles.get(profile_key)
    if profile is None:
        profile = profile_from_dict(document)
        _profiles.put(profile_key, profile)

    baseline_mode = baseline_energy = savings = None
    try:
        baseline_mode, baseline_energy = profile.best_single_mode(deadline,
                                                                  len(table))
        if baseline_energy > 0:
            savings = 1.0 - run["cpu_energy_nj"] / baseline_energy
    except ScheduleError:
        pass  # deadline below the fastest single mode: no baseline exists

    bound, continuous_energy = _profile_bounds(profile_key, profile, deadline,
                                               table)
    # Savings against the best single mode; absent (None) with either
    # side absent — an absence, never a crash.
    continuous_savings = None
    if (continuous_energy is not None and baseline_energy is not None
            and baseline_energy > 0):
        continuous_savings = float(1.0 - continuous_energy / baseline_energy)

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


#: The one dispatch table: every task kind of every family, mapped to the
#: module and name of its computation, ``fn(spec, deps, store)``.  A
#: family's module is imported by its first task, so a single-stream
#: sweep never loads :mod:`repro.taskgraph`.
TASK_FNS: dict[str, tuple[str, str]] = {
    "profile": (__name__, "_task_profile"),
    "optimize": (__name__, "_task_optimize"),
    "simulate": (__name__, "_task_simulate"),
    "verify": (__name__, "_task_verify"),
    "tg-tables": ("repro.taskgraph.pipeline", "task_tables"),
    "tg-solve": ("repro.taskgraph.pipeline", "task_solve"),
    "tg-simulate": ("repro.taskgraph.pipeline", "task_simulate"),
    "tg-verify": ("repro.taskgraph.pipeline", "task_verify"),
}


def load_task_stack() -> None:
    """Import what simulating and solving tasks use: the compiler, the
    simulator and the scheduler, numpy (input generators, model
    building) and scipy (the backends).

    The executor calls this in the parent before it forks a worker pool
    for such tasks, so the workers inherit the modules instead of each
    importing them.  A sweep whose tasks are all light never calls it.
    """
    import repro.core.milp.formulation  # noqa: F401
    import repro.core.scheduler  # noqa: F401
    import repro.ir.loops  # noqa: F401
    import repro.ir.validate  # noqa: F401
    import repro.lang  # noqa: F401
    import repro.profiling.params_extract  # noqa: F401
    import repro.simulator.machine  # noqa: F401
    import repro.verify.certificate  # noqa: F401
    import repro.workloads.inputs  # noqa: F401
    from repro.solver import load_backends

    load_backends()


def execute_task(kind: str, spec: dict[str, Any],
                 deps: dict[str, Any], store=None) -> dict[str, Any]:
    """Run one task kind; ``deps`` maps dep *kind* to its output dict.

    ``store`` (an :class:`~repro.runtime.cache.ArtifactStore`, or None)
    holds the side artifacts a task writes or reads itself: the
    profiling run's stream.
    """
    try:
        module, name = TASK_FNS[kind]
    except KeyError:
        raise OrchestrationError(f"unknown task kind {kind!r}") from None
    return getattr(importlib.import_module(module), name)(spec, deps, store)
