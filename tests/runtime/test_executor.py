"""Executor semantics: caching, retries, faults, timeouts, degradation.

These drive the *real* pipeline over the cheapest workload (adpcm) so
the executor is exercised against genuine task payloads, not mocks.
"""

import json
import threading

import pytest

from repro import observe
from repro.core.analytical import savings_ratio_discrete
from repro.core.continuous import continuous_bound
from repro.errors import OrchestrationError
from repro.resilience import faultplane
from repro.resilience.faultplane import FaultPlan
from repro.runtime.cache import ArtifactStore
from repro.runtime import dag
from repro.profiling.serialize import profile_from_dict
from repro.runtime.dag import ExperimentSpec, MachineSpec, build_task_graph
from repro.runtime.executor import ExecutorConfig, WorkerPool, run_graph


@pytest.fixture(scope="module")
def graph():
    return build_task_graph(
        [ExperimentSpec(workload="adpcm", deadline_frac=0.5)]
    )


def by_kind(results):
    return {r.kind: r for r in results.values()}


class TestHappyPath:
    def test_all_tasks_ok_without_store(self, graph):
        results = run_graph(graph, config=ExecutorConfig(jobs=1))
        assert all(r.ok for r in results.values())
        assert all(r.cache == "off" for r in results.values())
        verify = by_kind(results)["verify"]
        assert verify.output["ok"] is True

    def test_store_warm_run_is_all_hits(self, graph, tmp_path, monkeypatch):
        compiles = []
        real_compile = dag.compile_workload

        def counting_compile(name):
            compiles.append(name)
            return real_compile(name)

        monkeypatch.setattr(dag, "compile_workload", counting_compile)
        observe.enable(reset=True)
        try:
            store = ArtifactStore(tmp_path / "store")
            cold = run_graph(graph, store=store, config=ExecutorConfig(jobs=1))
            # Nothing is simulated twice: one recorded profiling run, and
            # timing replays of its stream for the other two modes and for
            # the scheduled run.
            assert observe.counter_value("simulator.runs") == 1
            assert observe.counter_value("simulator.replays") == 3
            assert observe.counter_value("simulator.scheduled_replays") == 1
            cold_compiles = len(compiles)
            observe.reset()
            warm_store = ArtifactStore(tmp_path / "store")
            warm = run_graph(graph, store=warm_store,
                             config=ExecutorConfig(jobs=1))
            assert observe.counter_value("simulator.runs") == 0
        finally:
            observe.disable()
        assert cold_compiles and len(compiles) == cold_compiles
        assert {r.kind for r in warm.values() if r.cache != "hit"} == {"verify"}
        cacheable = [r for r in warm.values()
                     if graph.tasks[r.task_id].cache_key]
        assert cacheable and all(r.cache == "hit" for r in cacheable)
        # Cached outputs must be exactly what the cold run computed.
        for task_id, result in warm.items():
            if graph.tasks[task_id].cache_key:
                assert result.output == cold[task_id].output

    def test_what_a_degraded_schedule_feeds_is_never_cached(self, tmp_path):
        """A starved solve's simulate must not land under the exact
        schedule's run key, or a later exact run replays the wrong run
        and fails its energy check."""
        spec = ExperimentSpec(workload="adpcm", deadline_frac=0.35)
        store = ArtifactStore(tmp_path / "store")
        starved = by_kind(run_graph(
            build_task_graph([spec], solver_budget_s=1e-4), store=store,
            config=ExecutorConfig(jobs=1, retries=0)))
        assert starved["optimize"].output["solver"]["degraded"]
        assert starved["simulate"].cache == "off"
        assert starved["simulate"].output["_cacheable"] is False
        exact = by_kind(run_graph(build_task_graph([spec]), store=store,
                                  config=ExecutorConfig(jobs=1, retries=0)))
        assert exact["profile"].cache == "hit"
        assert (exact["optimize"].cache, exact["simulate"].cache) == (
            "miss", "miss")
        assert exact["verify"].output["ok"] is True

    def test_pool_execution_matches_inline(self, graph, tmp_path):
        inline = run_graph(graph, config=ExecutorConfig(jobs=1))
        pooled = run_graph(graph, config=ExecutorConfig(jobs=2))
        assert by_kind(pooled)["verify"].output == by_kind(inline)["verify"].output
        assert by_kind(pooled)["simulate"].output == by_kind(inline)["simulate"].output


class RecordingPool(WorkerPool):
    """A worker pool that records the kind of every task sent to it."""

    def __init__(self, jobs: int) -> None:
        super().__init__(jobs)
        self.kinds: list[str] = []

    def submit(self, fn, *args):
        if args and isinstance(args[0], dict) and "kind" in args[0]:
            self.kinds.append(args[0]["kind"])
        return super().submit(fn, *args)


class TestInlineLightTasks:
    """``verify`` runs in the calling process, pool or no pool."""

    def test_verify_never_reaches_the_pool(self, graph, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with RecordingPool(2) as pool:
            cold = run_graph(graph, store=store, pool=pool,
                             config=ExecutorConfig(jobs=2))
            cold_kinds = list(pool.kinds)
            pool.kinds.clear()
            warm = run_graph(graph, store=ArtifactStore(tmp_path / "store"),
                             pool=pool, config=ExecutorConfig(jobs=2))
        assert sorted(cold_kinds) == ["optimize", "profile", "simulate"]
        assert pool.kinds == []  # a warm graph leaves the pool idle
        assert by_kind(warm)["verify"].output == by_kind(cold)["verify"].output
        assert by_kind(warm)["verify"].output["ok"] is True

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_inline_verify_off_the_main_thread_has_no_timeout_warning(
            self, graph, tmp_path, jobs):
        """A serve run thread cannot arm SIGALRM; a light task never
        asks it to, so it reports no unenforced timeout."""
        outcome = {}

        def run():
            outcome["results"] = run_graph(
                graph, store=ArtifactStore(tmp_path / "store"),
                config=ExecutorConfig(jobs=jobs, task_timeout_s=600.0))

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(600)
        verify = by_kind(outcome["results"])["verify"]
        assert verify.ok and verify.warnings == ()


class TestVerifyMemo:
    """What ``verify`` derives from a profile is memoized, bit-exactly."""

    @pytest.fixture(scope="class")
    def deps(self, graph):
        results = run_graph(graph, config=ExecutorConfig(jobs=1))
        outputs = {r.kind: r.output for r in results.values()}
        task = next(t for t in graph.tasks.values() if t.kind == "verify")
        return task.spec, {kind: outputs[kind]
                           for kind in ("profile", "optimize", "simulate")}

    def test_memo_hit_is_bit_identical_to_a_fresh_computation(self, deps):
        spec, inputs = deps
        dag._profiles.clear()
        dag._bounds.clear()
        observe.enable(reset=True)
        try:
            fresh = dag.execute_task("verify", spec, inputs)
            memo = dag.execute_task("verify", spec, inputs)
            hits = observe.counter_value("verify.bound_memo_hits")
        finally:
            observe.disable()
        assert hits == 1
        assert json.dumps(memo, sort_keys=True) == json.dumps(fresh,
                                                              sort_keys=True)
        profile = profile_from_dict(inputs["profile"]["profile"])
        table = MachineSpec.from_payload(spec).build().mode_table
        deadline = inputs["optimize"]["deadline_s"]
        assert memo["savings_bound"] == savings_ratio_discrete(
            profile.params, deadline, table)
        assert memo["continuous_energy_nj"] == float(
            continuous_bound(profile, table, deadline).energy_nj)
        assert memo["checks"] == {"deadline_met": True,
                                  "energy_predicted": True,
                                  "result_preserved": True}

    def test_memo_is_keyed_by_deadline(self, deps):
        spec, inputs = deps
        tighter = {**inputs, "optimize": {
            **inputs["optimize"],
            "deadline_s": inputs["optimize"]["deadline_s"] * 0.9}}
        base = dag.execute_task("verify", spec, inputs)
        other = dag.execute_task("verify", spec, tighter)
        assert other["continuous_energy_nj"] != base["continuous_energy_nj"]

    def test_checks_still_run_on_a_memo_hit(self, deps):
        spec, inputs = deps
        dag.execute_task("verify", spec, inputs)  # memo warm
        wrong = {**inputs, "simulate": {"run": {
            **inputs["simulate"]["run"], "return_value": "tampered"}}}
        out = dag.execute_task("verify", spec, wrong)
        assert out["ok"] is False
        assert out["checks"]["result_preserved"] is False


@pytest.fixture
def inject_fault():
    """Install the plan ``--inject-fault SPEC`` stands for, per test."""
    def install(spec: str, attempts: int = 2) -> FaultPlan:
        plan = FaultPlan.for_tasks(spec, attempts=attempts)
        faultplane.install(plan)
        return plan

    yield install
    faultplane.uninstall()


class TestFaultsAndRetries:
    def test_persistent_fault_degrades_gracefully(self, graph, inject_fault):
        inject_fault("optimize:*", attempts=2)  # every attempt crashes
        config = ExecutorConfig(jobs=1, retries=1, backoff_s=0.0)
        results = run_graph(graph, config=config)
        kinds = by_kind(results)
        assert kinds["optimize"].status == "failed"
        assert kinds["optimize"].error_type == "InjectedFault"
        assert kinds["optimize"].attempts == 2  # original + one retry
        assert kinds["simulate"].status == "skipped"
        assert kinds["verify"].status == "skipped"
        # The upstream task is untouched by the failure.
        assert kinds["profile"].ok
        assert set(kinds) == {"profile", "optimize", "simulate", "verify"}

    def test_transient_fault_is_retried_to_success(self, graph, inject_fault):
        inject_fault("optimize:*@1")
        config = ExecutorConfig(jobs=1, retries=1, backoff_s=0.0)
        results = run_graph(graph, config=config)
        kinds = by_kind(results)
        assert kinds["optimize"].ok
        assert kinds["optimize"].attempts == 2
        assert kinds["verify"].ok

    def test_skip_reason_names_the_failed_dependency(self, graph,
                                                     inject_fault):
        inject_fault("profile:*", attempts=1)
        results = run_graph(graph, config=ExecutorConfig(jobs=1, retries=0))
        verify = by_kind(results)["verify"]
        assert verify.status == "skipped"
        assert "profile:" in verify.error

    def test_fault_spec_parsing(self):
        plan = FaultPlan.for_tasks("optimize:gsm*@2", attempts=5)
        assert plan.crash_tasks == "optimize:gsm*"
        assert plan.schedule == {"worker.crash": (1, 2)}
        # A bare pattern crashes every attempt the executor will make.
        every = FaultPlan.for_tasks("simulate:*", attempts=3)
        assert every.schedule == {"worker.crash": (1, 2, 3)}
        assert FaultPlan.from_json(plan.to_json()) == plan
        with pytest.raises(OrchestrationError):
            FaultPlan.for_tasks("x@notanumber", attempts=2)

    def test_fault_applies_matching(self, inject_fault):
        inject_fault("optimize:*@1")
        assert faultplane.crash_due("optimize:gsm", attempt=1)
        assert not faultplane.crash_due("optimize:gsm", attempt=2)
        assert not faultplane.crash_due("profile:gsm", attempt=1)  # glob miss

    def test_glob_miss_runs_clean(self, graph, inject_fault):
        inject_fault("optimize:gsm*")
        results = run_graph(graph, config=ExecutorConfig(jobs=1, retries=0))
        assert all(r.ok and r.attempts == 1 for r in results.values())

    def test_first_attempt_fault_at_two_jobs_spares_the_retry_worker(
            self, graph, inject_fault):
        # Every retry is routed to a separate pool, so it runs on a
        # worker that never saw the crash.  The crash decision is taken
        # per task attempt in the parent, so @1 fires exactly once per
        # matching task, whichever worker the retry lands on.
        class RetriesElsewhere(WorkerPool):
            def __init__(self) -> None:
                super().__init__(2)
                self.retry_pool = WorkerPool(1)

            def submit(self, fn, payload):
                if payload["attempt"] > 1:
                    return self.retry_pool.submit(fn, payload)
                return super().submit(fn, payload)

        inject_fault("optimize:*@1")
        observe.enable()
        pool = RetriesElsewhere()
        try:
            before = observe.counter_value("faultplane.injected.worker.crash")
            results = run_graph(graph, pool=pool, config=ExecutorConfig(
                jobs=2, retries=1, backoff_s=0.0))
            retry_pids = pool.retry_pool.worker_pids()
            spans = observe.snapshot()["spans"]
        finally:
            pool.retry_pool.close()
            pool.close()
            observe.disable()
        kinds = by_kind(results)
        assert kinds["optimize"].ok and kinds["optimize"].attempts == 2
        assert all(r.attempts == 1 for r in results.values()
                   if r.kind != "optimize")
        assert (observe.counter_value("faultplane.injected.worker.crash")
                == before + 1)
        retried = [span for span in spans if span["name"] == "worker.task"
                   and span["attrs"]["kind"] == "optimize"
                   and span["attrs"]["attempt"] == 2]
        assert [span["pid"] for span in retried] == retry_pids


class TestTimeouts:
    def test_timeout_fails_task_and_skips_dependents(self, graph):
        # 1 ms is far below any real profile run; the SIGALRM path must
        # convert it into a structured failure, not a hang or a crash.
        config = ExecutorConfig(jobs=1, task_timeout_s=0.001, retries=0)
        results = run_graph(graph, config=config)
        kinds = by_kind(results)
        assert kinds["profile"].status == "failed"
        assert kinds["profile"].error_type == "TaskTimeout"
        assert kinds["verify"].status == "skipped"


class TestConfigValidation:
    def test_zero_jobs_rejected(self, graph):
        with pytest.raises(OrchestrationError):
            run_graph(graph, config=ExecutorConfig(jobs=0))


class TestTimeoutDegradation:
    """Satellite: a timeout that cannot be armed (non-main thread, no
    SIGALRM) degrades to a manifest warning instead of raising."""

    def test_off_main_thread_runs_without_deadline_and_warns(self):
        import threading

        from repro.runtime.executor import _with_timeout

        outcome = {}

        def run():
            outcome["value"] = _with_timeout(0.5, lambda: {"v": 1})

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        result, warnings = outcome["value"]
        assert result == {"v": 1}
        assert len(warnings) == 1
        assert "not enforced" in warnings[0]
        assert "main thread" in warnings[0]

    def test_main_thread_with_timeout_has_no_warning(self):
        from repro.runtime.executor import _with_timeout

        result, warnings = _with_timeout(30.0, lambda: {"v": 2})
        assert result == {"v": 2}
        assert warnings == []

    def test_no_timeout_requested_no_warning_anywhere(self):
        import threading

        from repro.runtime.executor import _with_timeout

        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(value=_with_timeout(None, dict)))
        thread.start()
        thread.join()
        assert outcome["value"] == ({}, [])


class TestStopAndPreload:
    def test_completed_outputs_short_circuit_execution(self, graph):
        # Pre-finish every task from a fake journal: nothing executes.
        outputs = {tid: {"stub": tid} for tid in graph.tasks}
        results = run_graph(graph, config=ExecutorConfig(jobs=1),
                            completed=outputs)
        assert len(results) == len(graph.tasks)
        assert all(r.cache == "journal" and r.ok for r in results.values())

    def test_unknown_completed_ids_ignored(self, graph):
        results = run_graph(
            graph, config=ExecutorConfig(jobs=1),
            completed={"optimize:not-in-this-grid": {"stub": 1},
                       **{tid: {"stub": tid} for tid in graph.tasks}},
        )
        assert set(results) == set(graph.tasks)

    def test_should_stop_before_start_returns_empty(self, graph):
        results = run_graph(graph, config=ExecutorConfig(jobs=1),
                            should_stop=lambda: True)
        assert results == {}

    def test_should_stop_mid_run_returns_partial(self, graph):
        seen = []

        def stop_after_two() -> bool:
            return len(seen) >= 2

        results = run_graph(graph, config=ExecutorConfig(jobs=1),
                            on_task=lambda r: seen.append(r.task_id),
                            should_stop=stop_after_two)
        assert 2 <= len(results) < len(graph.tasks)
        # Partial results are internally consistent: every finished
        # task's dependencies are finished too.
        for task_id in results:
            for dep in graph.tasks[task_id].deps:
                assert dep in results
