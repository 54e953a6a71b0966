"""Grid sweeps: suite × deadline fraction × mode-table level count.

:func:`build_grid` expands a :class:`SweepConfig` into the cross-product
of experiment specs; :func:`run_sweep` builds the merged task DAG, runs
it through the parallel executor against the artifact store, and writes
the manifest/results pair.  This is the engine behind ``repro sweep``
and the scaling path for evaluations far larger than the paper's.
"""

from __future__ import annotations

import logging
import signal
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import observe
from repro.errors import OrchestrationError, ReproError
from repro.resilience.journal import SweepJournal, run_fingerprint
from repro.runtime import hashing
from repro.runtime import manifest as manifest_mod
from repro.runtime.cache import ArtifactStore
from repro.runtime.dag import (
    ExperimentSpec,
    MachineSpec,
    TaskGraph,
    build_task_graph,
)
from repro.runtime.executor import ExecutorConfig, TaskResult, run_graph
from repro.workloads import get_workload

logger = logging.getLogger("repro.sweep")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep = a grid plus execution and persistence settings."""

    workloads: tuple[str, ...]
    deadline_fracs: tuple[float, ...] = (0.35, 0.7)
    levels: tuple[int | None, ...] = (None,)  # None -> XScale-3
    categories: dict[str, tuple[str, ...]] = field(default_factory=dict)
    seed: int = 0
    capacitance_uf: float = 10.0
    jobs: int = 1
    task_timeout_s: float | None = 600.0
    retries: int = 1
    backoff_s: float = 0.05
    cache_dir: str | None = None  # None -> caching disabled
    output_dir: str = "sweep-results"
    solver_budget_s: float | None = None  # anytime optimize budget
    solver_backend: str = "auto"  # optimize backend (incl. "continuous")
    continuous_prune: bool = False  # warm-start B&B from the continuous round-up
    resume: bool = False  # replay the journal in output_dir
    trace: bool = False  # collect + export trace.jsonl / metrics.json
    fastpath: bool = True  # bit-exact accelerated simulation (see repro.perf)


@dataclass
class SweepReport:
    """Everything :func:`run_sweep` produced."""

    graph: TaskGraph
    results: dict[str, TaskResult]
    manifest_path: Path
    results_path: Path | None  # None when the run was interrupted
    wall_time_s: float
    cache_stats: dict[str, int]
    interrupted: bool = False
    resumed_tasks: int = 0
    trace_path: Path | None = None  # trace.jsonl when tracing was on
    metrics_path: Path | None = None  # metrics.json when tracing was on

    @property
    def experiment_records(self) -> list[dict[str, Any]]:
        return manifest_mod.experiment_records(self.graph, self.results)

    @property
    def failures(self) -> list[dict[str, Any]]:
        return [r for r in self.experiment_records
                if r["status"] not in ("ok", "incomplete")]

    @property
    def degraded_tasks(self) -> list[str]:
        """Solve tasks that fell back below a proven optimum."""
        return manifest_mod.degraded_tasks(self.results)

    @property
    def verify_failures(self) -> list[dict[str, Any]]:
        return [r for r in self.experiment_records
                if r["status"] == "verify_failed"]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.interrupted


def build_grid(config: SweepConfig) -> list[ExperimentSpec]:
    """Expand the sweep cross-product, validating every axis up front."""
    if not config.workloads:
        raise OrchestrationError("sweep needs at least one workload")
    if not config.deadline_fracs:
        raise OrchestrationError("sweep needs at least one deadline fraction")
    for frac in config.deadline_fracs:
        if not 0.0 <= frac <= 1.0:
            raise OrchestrationError(
                f"deadline fraction {frac} outside [0, 1]"
            )
    experiments: list[ExperimentSpec] = []
    for name in config.workloads:
        get_workload(name)  # raises ReproError for unknown names, early
        categories = config.categories.get(name, (None,))
        for category in categories:
            for levels in config.levels:
                machine = MachineSpec(levels=levels,
                                      capacitance_uf=config.capacitance_uf,
                                      fastpath=config.fastpath)
                for frac in config.deadline_fracs:
                    experiments.append(ExperimentSpec(
                        workload=name,
                        deadline_frac=frac,
                        category=category,
                        seed=config.seed,
                        machine=machine,
                    ))
    return experiments


def run_sweep(
    config: SweepConfig,
    on_task: Callable[[TaskResult], None] | None = None,
    experiments: list | None = None,
    run_info_extra: dict[str, Any] | None = None,
) -> SweepReport:
    """Run a full sweep and persist its manifest and results.

    Crash safety: every completed task is appended (fsync'd) to
    ``<output-dir>/journal.jsonl``; with ``config.resume`` a later
    invocation replays those entries instead of recomputing, producing a
    byte-identical ``results.jsonl``.  A SIGINT on the main thread asks
    the executor to stop submitting work, drains in-flight tasks into
    the journal, writes the (partial) manifest and returns with
    ``interrupted=True`` — ``results.jsonl`` is only written for
    complete runs.

    Args:
        config: execution and persistence settings; its grid axes are
            expanded via :func:`build_grid` unless ``experiments`` is
            given.
        on_task: per-task completion callback.
        experiments: pre-built grid (any experiment family, e.g.
            taskgraph specs) that bypasses :func:`build_grid`.
        run_info_extra: extra fields merged into the manifest header
            (family-specific axes the generic config cannot express).
    """
    if experiments is None:
        experiments = build_grid(config)
    graph = build_task_graph(experiments,
                             solver_budget_s=config.solver_budget_s,
                             solver_backend=config.solver_backend,
                             continuous_prune=config.continuous_prune)
    # Warm-start bases/pseudocosts are per-sweep ephemeral state: reset
    # so a resumed run and a cold run see identical (empty) registries.
    # Pool workers (jobs > 1) start with fresh per-process registries.
    # A registry that was never imported is empty already, and importing
    # it would load the solver stack into a sweep that may not solve.
    warmstart = sys.modules.get("repro.solver.warmstart")
    if warmstart is not None:
        warmstart.reset()
    store = ArtifactStore(config.cache_dir) if config.cache_dir else None
    output_dir = Path(config.output_dir)

    journal = SweepJournal(
        output_dir / "journal.jsonl",
        # KEY_VERSION is in the identity: a journal written under other
        # artifact semantics must not be replayed into this run.
        run_fingerprint({
            "experiments": sorted(e.experiment_id for e in experiments),
            "seed": config.seed,
            "key_version": hashing.KEY_VERSION,
        }),
    )
    completed = journal.load_completed() if config.resume else {}
    # Replay only tasks that still exist in this grid.
    completed = {tid: out for tid, out in completed.items()
                 if tid in graph.tasks}
    if completed:
        logger.info("resuming %d completed tasks from %s",
                    len(completed), journal.path)
    journal.start(resume=config.resume)

    def journal_task(result: TaskResult) -> None:
        if (result.ok and result.cache != "journal"
                and result.output is not None
                and result.output.get("_cacheable", True)):
            journal.record(result.task_id, result.output)
        if on_task is not None:
            on_task(result)

    # First Ctrl-C flips a flag the executor polls; the drain then runs
    # to a valid partial journal instead of dying mid-write.  Only the
    # main thread may own signal handlers.
    stop = threading.Event()
    previous_handler = None
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        previous_handler = signal.signal(
            signal.SIGINT, lambda signum, frame: stop.set()
        )

    # Tracing covers exactly this sweep: enabled here (flag or env),
    # restored afterwards.  A collector an embedding caller already
    # enabled is left alone — and left enabled.
    trace_requested = config.trace or observe.env_enabled()
    was_enabled = observe.enabled()
    if trace_requested and not was_enabled:
        observe.enable(reset=True)
    sweep_span = observe.start_span(
        "sweep", on_stack=True,
        workloads=",".join(sorted(config.workloads)),
        experiments=len(experiments), jobs=config.jobs,
        resume=config.resume,
    )
    try:
        results = run_graph(
            graph,
            store=store,
            config=ExecutorConfig(
                jobs=config.jobs,
                task_timeout_s=config.task_timeout_s,
                retries=config.retries,
                backoff_s=config.backoff_s,
            ),
            on_task=journal_task,
            completed=completed,
            should_stop=stop.is_set,
        )
    finally:
        observe.end_span(sweep_span)
        journal.close()
        if on_main:
            signal.signal(signal.SIGINT,
                          previous_handler if previous_handler is not None
                          else signal.SIG_DFL)
    wall_time = sweep_span.elapsed_s
    interrupted = len(results) < len(graph.tasks)

    run_info = {
        "workloads": sorted(config.workloads),
        "deadline_fracs": list(config.deadline_fracs),
        "levels": ["xscale-3" if l is None else l for l in config.levels],
        "seed": config.seed,
        "capacitance_uf": config.capacitance_uf,
        "jobs": config.jobs,
        "retries": config.retries,
        "cache_dir": config.cache_dir,
        "solver_budget_s": config.solver_budget_s,
        "solver_backend": config.solver_backend,
        "continuous_prune": config.continuous_prune,
        "resume": config.resume,
        "resumed_tasks": len(completed),
        "interrupted": interrupted,
        "experiments": len(experiments),
        "tasks": len(graph.tasks),
    }
    if run_info_extra:
        run_info.update(run_info_extra)
    manifest_path = manifest_mod.write_manifest(
        output_dir / "manifest.jsonl", run_info, results, wall_time
    )
    # The scientific record is all-or-nothing: a partial results.jsonl
    # would be mistaken for a complete (byte-comparable) one.
    results_path = None
    if not interrupted:
        results_path = manifest_mod.write_results(
            output_dir / "results.jsonl", graph, results
        )
    cache_stats = store.stats.as_dict() if store is not None else {}
    # Trace/metrics are operational artifacts (like the manifest): they
    # sit next to results.jsonl but never influence its bytes.
    trace_path = metrics_path = None
    if trace_requested:
        trace_path, metrics_path = observe.export(output_dir)
        if not was_enabled:
            observe.disable()
    return SweepReport(
        graph=graph,
        results=results,
        manifest_path=manifest_path,
        results_path=results_path,
        wall_time_s=wall_time,
        cache_stats=cache_stats,
        interrupted=interrupted,
        resumed_tasks=len(completed),
        trace_path=trace_path,
        metrics_path=metrics_path,
    )
