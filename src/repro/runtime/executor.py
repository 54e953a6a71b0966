"""Parallel task-graph execution with timeouts, retries and degradation.

The scheduler keeps a frontier of ready tasks (all dependencies
finished) and feeds a ``ProcessPoolExecutor`` up to ``jobs`` tasks deep.
Experiments are CPU-bound pure-Python simulation, so processes — not
threads — are what buys wall-clock time.  Light tasks
(:data:`~repro.runtime.dag.LIGHT_KINDS`: ``verify``, which only reads
its dependencies' outputs) run inline in the calling process once their
deps are in hand, pool or no pool: shipping them to a worker costs more
than running them.  They hold no ``jobs`` slot and run without a
deadline.

Failure semantics, in order of application:

* **cache hit** — a task whose key is in the artifact store never runs;
  the stored payload becomes its output.
* **timeout** — each task but a light one may carry a wall-clock
  budget, enforced *inside* the worker with a SIGALRM interval timer
  (workers run tasks on their main thread), raising
  :class:`~repro.errors.TaskTimeout`.
* **retry** — a failed task is resubmitted up to ``retries`` times with
  exponential backoff; attempts are counted in the parent so a retried
  task lands on a fresh worker.
* **degradation** — a task that exhausts its retries records a
  structured failure; its dependents are marked ``skipped`` with the
  failing task named as the reason, and every other task in the sweep
  proceeds.  The executor itself only raises for malformed graphs,
  never for failing experiments.

Fault injection goes through :mod:`repro.resilience.faultplane`: the
parent asks :func:`~repro.resilience.faultplane.crash_due` at submit
time whether an attempt should crash, and the worker raises
:class:`~repro.errors.InjectedFault` for it — the degradation path is
tested, not assumed.
"""

from __future__ import annotations

import logging
import os
import signal
import sys
import time
import threading
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro import observe
from repro.errors import InjectedFault, OrchestrationError, TaskTimeout
from repro.resilience import faultplane
from repro.runtime.cache import ArtifactStore
from repro.runtime.dag import (
    LIGHT_KINDS,
    Task,
    TaskGraph,
    execute_task,
    load_task_stack,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

logger = logging.getLogger("repro.executor")


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs for one :func:`run_graph` invocation."""

    jobs: int = 1
    task_timeout_s: float | None = None
    retries: int = 1
    backoff_s: float = 0.05


@dataclass
class TaskResult:
    """What one task did, for the manifest and for dependents."""

    task_id: str
    kind: str
    status: str  # "ok" | "failed" | "skipped"
    experiments: tuple[str, ...]
    cache: str  # "hit" | "miss" | "off" | "journal"
    attempts: int = 0
    wall_time_s: float = 0.0
    output: dict[str, Any] | None = None
    error: str | None = None
    error_type: str | None = None
    # Non-fatal degradations inside the worker (e.g. a timeout that could
    # not be armed off the main thread); surfaced in the manifest.
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# -- worker side -----------------------------------------------------------------


def _init_worker(parent_sys_path: list[str], parent_pid: int) -> None:
    """Make the parent's import roots visible under spawn-style start,
    and make the worker exit when its parent dies.

    A SIGKILLed server or sweep never runs its pool shutdown, so without
    the watchdog its idle workers would live on as orphans.
    """
    for entry in reversed(parent_sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    threading.Thread(target=_exit_with_parent, args=(parent_pid,),
                     name="repro-parent-watchdog", daemon=True).start()


def _exit_with_parent(parent_pid: int, poll_s: float = 0.25) -> None:
    while os.getppid() == parent_pid:
        time.sleep(poll_s)
    os._exit(1)


def _with_timeout(
    timeout_s: float | None, fn: Callable[[], dict]
) -> tuple[dict, list[str]]:
    """Run ``fn`` under a SIGALRM deadline when the platform allows it.

    ``signal.setitimer``/``SIGALRM`` only work on the main thread of a
    process.  When a timeout was *requested* but cannot be armed (no
    SIGALRM on this platform, or we are running on a non-main thread,
    e.g. under a thread-pool harness), the task runs without a deadline
    and the degradation is reported as a warning instead of raising
    ``ValueError`` from the signal machinery.

    Returns:
        (result of ``fn``, warnings).
    """
    warnings: list[str] = []
    wanted = timeout_s is not None and timeout_s > 0
    on_main = threading.current_thread() is threading.main_thread()
    can_alarm = wanted and hasattr(signal, "SIGALRM") and on_main
    if not can_alarm:
        if wanted:
            reason = ("platform lacks SIGALRM" if not hasattr(signal, "SIGALRM")
                      else "worker is not on its process's main thread")
            warnings.append(
                f"task timeout {timeout_s:g}s requested but not enforced: {reason}"
            )
        return fn(), warnings

    def _on_alarm(signum, frame):
        raise TaskTimeout(f"task exceeded its {timeout_s:g}s budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn(), warnings
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_task_entry(payload: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: compute one task, never raise.

    Returns a transport dict ``{ok, output|error, wall_time_s,
    started_at}`` plus, for pool workers with tracing on, a ``trace``
    snapshot the parent merges; errors travel as (type name, message)
    pairs so the parent need not unpickle arbitrary exception state.
    """
    fresh = payload.get("trace_fresh", False)
    if fresh:
        # Fork-started pool workers inherit the parent collector (its
        # spans, metrics, and thread-local span stack); start clean so
        # the shipped snapshot covers exactly this task.  jobs=1 runs
        # in the parent process and must NOT reset the live collector.
        observe.reset()
        if payload.get("trace"):
            observe.enable()
        else:
            observe.disable()
    sp = observe.start_span(
        "worker.task", parent_id=payload.get("trace_parent"), on_stack=True,
        task=payload["task_id"], kind=payload["kind"],
        attempt=payload["attempt"],
    )
    try:
        if payload["inject_fault"]:
            raise InjectedFault(
                f"injected fault in {payload['task_id']} "
                f"(attempt {payload['attempt']})"
            )

        def _body() -> dict:
            # worker.hang sleeps *inside* the timeout window, so a hang
            # longer than the task budget is killed by TaskTimeout like
            # any genuine stall would be.
            faultplane.stall("worker.hang")
            return execute_task(payload["kind"], payload["spec"], payload["deps"],
                                store)

        store_root = payload.get("store_root")
        store = ArtifactStore(store_root) if store_root is not None else None
        output, warnings = _with_timeout(payload.get("timeout_s"), _body)
        # Tasks may veto memoization of a degraded output (e.g. a fallback
        # schedule from a starved solver must not masquerade as the
        # optimum for future runs).
        if (store is not None and payload.get("cache_key")
                and output.get("_cacheable", True)):
            store.put(payload["cache_key"], output)
        observe.end_span(sp, status="ok")
        transport = {
            "ok": True,
            "output": output,
            "warnings": warnings,
            "wall_time_s": sp.elapsed_s,
            "started_at": sp.t0,
        }
    except BaseException as error:  # noqa: BLE001 — transported, not swallowed
        observe.end_span(sp, status="error", error=type(error).__name__)
        transport = {
            "ok": False,
            "error": str(error),
            "error_type": type(error).__name__,
            "wall_time_s": sp.elapsed_s,
            "started_at": sp.t0,
        }
    if fresh and observe.enabled():
        transport["trace"] = observe.snapshot(reset=True)
        observe.disable()
    return transport


# -- parent side -----------------------------------------------------------------


def _pool_context():
    """Prefer fork (cheap, inherits sys.path); fall back to the default."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _worker_roll_call(delay_s: float) -> int:
    """Identify a worker (used by :meth:`WorkerPool.warm_up`).

    The short sleep keeps the task pinned long enough that concurrent
    roll calls land on distinct workers instead of one fast worker
    draining them all.
    """
    time.sleep(delay_s)
    return os.getpid()


class WorkerPool:
    """A persistent, crash-resilient process pool.

    Historically each :func:`run_graph` call spun up its own
    ``ProcessPoolExecutor`` and tore it down with the sweep.  A
    ``WorkerPool`` decouples the pool's lifetime from any one graph run
    so a long-lived service (:mod:`repro.serve`) can keep **warm**
    workers across requests: fork-started workers retain the solver's
    warm-basis/pseudocost registries (:mod:`repro.solver.warmstart`) and
    the compiled-simulator caches (:mod:`repro.perf.engine`) between
    tasks, which is where the per-request amortization comes from.

    The pool is a context manager (``with WorkerPool(4) as pool:``) and
    is safe to share between threads: many concurrent ``run_graph``
    calls may submit into one pool.  When a worker dies (OOM kill,
    SIGKILL chaos), the underlying executor breaks; :meth:`reset`
    discards it and the next :meth:`submit` respawns a fresh one, so a
    single crashed request never takes the service down.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise OrchestrationError(f"pool jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.respawns = 0
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False

    def _spawn_locked(self) -> ProcessPoolExecutor:
        # Imported on the first spawn: a sweep run inline (``--jobs 1``,
        # or every task light) never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        self._executor = ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(list(sys.path), os.getpid()),
        )
        return self._executor

    def submit(self, fn: Callable, *args: Any) -> Future:
        """Submit work, respawning the executor if a worker died."""
        from concurrent.futures.process import BrokenProcessPool

        with self._lock:
            if self._closed:
                raise OrchestrationError("worker pool is closed")
            executor = self._executor or self._spawn_locked()
            try:
                return executor.submit(fn, *args)
            except BrokenProcessPool:
                self._reset_locked()
                return self._spawn_locked().submit(fn, *args)

    def _reset_locked(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self.respawns += 1
            observe.add("executor.pool.respawns")
            logger.warning("worker pool broken; respawning (respawn #%d)",
                           self.respawns)

    def reset(self) -> None:
        """Discard a broken executor; the next submit respawns it."""
        with self._lock:
            self._reset_locked()

    def warm_up(self, delay_s: float = 0.05) -> list[int]:
        """Force worker spawn-up; returns the pids that answered.

        ``ProcessPoolExecutor`` forks workers lazily, so a fresh pool
        has nobody to keep warm (and nothing for a chaos harness to
        kill) until the first task arrives.
        """
        futures = [self.submit(_worker_roll_call, delay_s)
                   for _ in range(self.jobs)]
        return sorted({future.result() for future in futures})

    def load_before_fork(self, load: Callable[[], None]) -> None:
        """Run ``load`` (imports for the workers to inherit) unless the
        workers exist already.

        It runs under the pool's lock, so no worker is forked while it
        imports: a worker forked from another thread mid-import would
        inherit that module's import lock held, and hang on its first
        import of the module.
        """
        with self._lock:
            if self._executor is None:
                load()

    def worker_pids(self) -> list[int]:
        """Pids of the live worker processes (may be empty before use)."""
        with self._lock:
            if self._executor is None:
                return []
            processes = getattr(self._executor, "_processes", None) or {}
            return sorted(processes)

    def close(self) -> None:
        """Shut the pool down; idempotent."""
        with self._lock:
            self._closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _run_inline(payload: dict[str, Any]) -> Future:
    """Run a task in this process; its already finished future."""
    future: Future = Future()
    future.set_result(_run_task_entry(payload))
    return future


def run_graph(
    graph: TaskGraph,
    store: ArtifactStore | None = None,
    config: ExecutorConfig = ExecutorConfig(),
    on_task: Callable[[TaskResult], None] | None = None,
    completed: dict[str, dict[str, Any]] | None = None,
    should_stop: Callable[[], bool] | None = None,
    pool: WorkerPool | None = None,
) -> dict[str, TaskResult]:
    """Execute a task graph; returns results for every task.

    Args:
        graph: a validated :class:`TaskGraph`.
        store: optional artifact store consulted before running any
            cacheable task and written through by workers.
        config: parallelism/timeout/retry settings.
        on_task: progress callback, invoked once per finished task.
        completed: task outputs recovered from a previous run's journal
            (task id → output dict); these tasks are finished immediately
            with ``cache="journal"`` and never re-executed.
        should_stop: polled between scheduling steps; once it returns
            True the executor stops submitting work, drains every
            in-flight task (journaling their results via ``on_task``)
            and returns the partial result map.  Used by the SIGINT
            handler for a clean interrupted shutdown.
        pool: an externally owned :class:`WorkerPool` to execute tasks
            in.  The caller keeps it alive across calls (warm workers);
            this function never shuts it down.  Without one, ``jobs > 1``
            creates a pool for just this graph and ``jobs == 1`` runs
            tasks inline.  Light tasks run inline either way.

    Returns:
        results for every task — or, after a ``should_stop`` drain, for
        the subset that finished before the stop.
    """
    if config.jobs < 1:
        raise OrchestrationError(f"jobs must be >= 1, got {config.jobs}")
    graph.validate()

    order = graph.topo_order()
    results: dict[str, TaskResult] = {}
    probed: set[str] = set()  # tasks already looked up in the store
    attempts: dict[str, int] = {tid: 0 for tid in order}
    inflight: dict[Future, str] = {}
    task_spans: dict[str, observe.Span] = {}  # open executor.task spans
    stopping = False
    owned_pool: WorkerPool | None = None
    if pool is None and config.jobs > 1:
        owned_pool = pool = WorkerPool(config.jobs)
    graph_span = observe.start_span("executor.run_graph", on_stack=True,
                                    jobs=config.jobs, tasks=len(graph.tasks))

    def finish(result: TaskResult) -> None:
        results[result.task_id] = result
        observe.add(f"executor.tasks.{result.status}")
        if on_task is not None:
            on_task(result)

    for task_id, output in (completed or {}).items():
        task = graph.tasks.get(task_id)
        if task is None:
            continue  # journal from a superset grid; ignore strays
        finish(TaskResult(
            task_id=task_id, kind=task.kind, status="ok",
            experiments=task.experiments, cache="journal", output=output,
        ))

    def ready_tasks() -> list[Task]:
        out = []
        for tid in order:
            if tid in results or tid in inflight.values():
                continue
            task = graph.tasks[tid]
            if all(dep in results for dep in task.deps):
                out.append(task)
        return out

    def tainted(task: Task) -> bool:
        """True when a dependency's output is uncacheable (``_cacheable:
        false``, e.g. a budget-starved schedule).  What is computed from
        it is uncacheable too: never served from or written under the
        key of the exact result, and never journaled."""
        return any(not results[dep].output.get("_cacheable", True)
                   for dep in task.deps)

    def cache_key(task: Task) -> str | None:
        return None if store is None or tainted(task) else task.cache_key

    def resolve_without_running(task: Task) -> TaskResult | None:
        """Skip on failed deps; serve cache hits without a worker."""
        failed_deps = [d for d in task.deps if not results[d].ok]
        if failed_deps:
            return TaskResult(
                task_id=task.task_id, kind=task.kind, status="skipped",
                experiments=task.experiments, cache="off",
                error=f"dependency {failed_deps[0]} "
                      f"{results[failed_deps[0]].status}",
                error_type="SkippedDependency",
            )
        if cache_key(task) is not None and task.task_id not in probed:
            probed.add(task.task_id)
            probe = observe.start_span("executor.cache_probe",
                                       task=task.task_id)
            payload = store.get(task.cache_key)
            observe.end_span(probe, hit=payload is not None)
            if payload is not None:
                return TaskResult(
                    task_id=task.task_id, kind=task.kind, status="ok",
                    experiments=task.experiments, cache="hit",
                    wall_time_s=probe.elapsed_s, output=payload,
                )
        return None

    def slots_taken() -> int:
        return sum(graph.tasks[tid].kind not in LIGHT_KINDS
                   for tid in inflight.values())

    def submit(task: Task) -> None:
        light = task.kind in LIGHT_KINDS
        inline = pool is None or light
        attempts[task.task_id] += 1
        attempt = attempts[task.task_id]
        # One executor.task span per attempt, ended in absorb().  It is
        # deliberately off the thread-local stack: many are open at once
        # and they do not nest.
        tspan = observe.start_span("executor.task", task=task.task_id,
                                   kind=task.kind, attempt=attempt)
        task_spans[task.task_id] = tspan
        payload = {
            "task_id": task.task_id,
            "kind": task.kind,
            "spec": task.spec,
            "deps": {
                graph.tasks[dep].kind: results[dep].output for dep in task.deps
            },
            "attempt": attempt,
            "timeout_s": None if light else config.task_timeout_s,
            "cache_key": cache_key(task),
            "store_root": str(store.root) if store is not None else None,
            "inject_fault": faultplane.crash_due(task.task_id, attempt),
            "trace": observe.enabled(),
            "trace_parent": tspan.span_id or None,
            "trace_fresh": not inline,
        }
        if inline:
            inflight[_run_inline(payload)] = task.task_id
            return
        # Import once here, so the workers forked by this submit
        # inherit the task stack rather than each loading it.
        pool.load_before_fork(load_task_stack)
        inflight[pool.submit(_run_task_entry, payload)] = task.task_id

    def absorb(task_id: str, transport: dict[str, Any]) -> None:
        task = graph.tasks[task_id]
        observe.absorb(transport.get("trace"))
        tspan = task_spans.pop(task_id, None)
        if tspan is not None:
            started = transport.get("started_at")
            if started is not None:
                # perf_counter is CLOCK_MONOTONIC (system-wide on Linux),
                # so parent submit time and worker start time compare;
                # clamp for platforms where the epochs may differ.
                observe.record("executor.queue_wait_s",
                               max(0.0, started - tspan.t0))
            observe.end_span(tspan, ok=transport["ok"])
        key = cache_key(task)
        if transport["ok"]:
            output = transport["output"]
            if tainted(task):
                output = {**output, "_cacheable": False}
            finish(TaskResult(
                task_id=task_id, kind=task.kind, status="ok",
                experiments=task.experiments,
                cache="miss" if key else "off",
                attempts=attempts[task_id],
                wall_time_s=transport["wall_time_s"],
                output=output,
                warnings=tuple(transport.get("warnings", ())),
            ))
            return
        if transport.get("error_type") == "TaskTimeout":
            observe.add("executor.timeouts")
        if attempts[task_id] <= config.retries and not stopping:
            observe.add("executor.retries")
            logger.info("retrying %s (attempt %d failed: %s)", task_id,
                        attempts[task_id], transport.get("error_type"))
            time.sleep(config.backoff_s * (2 ** (attempts[task_id] - 1)))
            submit(task)
            return
        logger.warning("task %s failed after %d attempts: %s", task_id,
                       attempts[task_id], transport.get("error"))
        finish(TaskResult(
            task_id=task_id, kind=task.kind, status="failed",
            experiments=task.experiments,
            cache="miss" if key else "off",
            attempts=attempts[task_id],
            wall_time_s=transport["wall_time_s"],
            error=transport["error"],
            error_type=transport["error_type"],
        ))

    try:
        while len(results) < len(graph.tasks):
            if not stopping and should_stop is not None and should_stop():
                stopping = True
            progressed = False
            if not stopping:
                for task in ready_tasks():
                    resolved = resolve_without_running(task)
                    if resolved is not None:
                        finish(resolved)
                        progressed = True
                    elif (task.kind in LIGHT_KINDS
                          or slots_taken() < config.jobs):
                        submit(task)
                        progressed = True
            if inflight:
                done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
                # In submission order, so inline runs finish in the
                # order they ran.
                for future in [f for f in inflight if f in done]:
                    task_id = inflight.pop(future)
                    absorb(task_id, _transport_of(future, pool))
                progressed = True
            if stopping and not inflight:
                break  # drained: return the partial result map
            if not progressed:
                stuck = sorted(set(graph.tasks) - set(results))
                raise OrchestrationError(
                    f"scheduler stalled with tasks unresolved: {stuck}"
                )
    finally:
        if owned_pool is not None:
            owned_pool.close()
        for tspan in task_spans.values():
            observe.end_span(tspan, ok=False, abandoned=True)
        observe.end_span(graph_span, completed=len(results))

    return results


def _transport_of(future: Future, pool: WorkerPool | None) -> dict[str, Any]:
    """A finished future's transport dict, with worker death absorbed.

    A worker killed mid-task (OOM, SIGKILL chaos) breaks the whole
    executor: every in-flight future raises ``BrokenProcessPool``.  That
    must degrade into per-task failures — retried on a respawned pool or
    reported as structured failures — never crash the graph run.
    """
    try:
        return future.result()
    except BaseException as error:  # noqa: BLE001 - converted to a failure
        from concurrent.futures.process import BrokenProcessPool

        if pool is not None and isinstance(error, BrokenProcessPool):
            observe.add("executor.worker_crashes")
            pool.reset()
        return {
            "ok": False,
            "error": str(error) or type(error).__name__,
            "error_type": type(error).__name__,
            "wall_time_s": 0.0,
            "started_at": None,
        }
