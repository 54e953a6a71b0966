"""The persistent warm worker pool: reuse, crash recovery, hygiene."""

import os
import signal
import threading
import time

from repro import observe
from repro.runtime.executor import ExecutorConfig, WorkerPool, run_graph
from repro.runtime.dag import ExperimentSpec, build_task_graph


def small_graph(frac: float):
    return build_task_graph([ExperimentSpec(workload="adpcm",
                                            deadline_frac=frac)])


class TestWarmPool:
    def test_warm_up_forks_distinct_workers(self):
        with WorkerPool(2) as pool:
            pids = pool.warm_up()
            assert len(pids) == 2
            assert os.getpid() not in pids
            assert pool.worker_pids() == pids

    def test_workers_persist_across_submits(self):
        with WorkerPool(1) as pool:
            first = pool.warm_up()
            second = pool.warm_up()
            assert first == second  # same process, kept warm

    def test_close_is_idempotent(self):
        pool = WorkerPool(1)
        pool.warm_up()
        pool.close()
        pool.close()

    def test_run_graph_borrows_but_never_closes_the_pool(self):
        with WorkerPool(2) as pool:
            pids = pool.warm_up()
            results = run_graph(small_graph(0.5), store=None,
                                config=ExecutorConfig(jobs=2), pool=pool)
            assert all(r.ok for r in results.values())
            # The pool survived the run with the same warm workers.
            assert pool.warm_up() == pids


class TestLoadBeforeFork:
    def test_no_worker_forks_while_the_load_runs(self):
        """A server forks its workers from one thread while a run thread
        loads the task stack: the fork must wait for the imports, or a
        worker inherits an import lock held and hangs on that module."""
        loading, spans = threading.Event(), {}

        def load() -> None:
            loading.set()
            time.sleep(0.3)
            spans["load_end"] = time.monotonic()

        with WorkerPool(1) as pool:
            loader = threading.Thread(target=pool.load_before_fork,
                                      args=(load,))
            loader.start()
            assert loading.wait(10)
            pool.warm_up(delay_s=0.0)
            spans["forked_by"] = time.monotonic()
            loader.join(10)
            assert not loader.is_alive()
        assert spans["forked_by"] >= spans["load_end"]

    def test_skipped_once_workers_exist(self):
        calls = []
        with WorkerPool(1) as pool:
            pool.warm_up(delay_s=0.0)
            pool.load_before_fork(lambda: calls.append(1))
        assert calls == []


class TestCrashRecovery:
    def test_killed_workers_respawn_and_the_run_completes(self):
        was_enabled = observe.enabled()
        if not was_enabled:
            observe.enable()
        before = observe.counter_value("executor.pool.respawns")
        with WorkerPool(2) as pool:
            pids = pool.warm_up()
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            # retries=1 gives the respawned pool one shot per task.
            results = run_graph(small_graph(0.5), store=None,
                                config=ExecutorConfig(jobs=2, retries=1),
                                pool=pool)
            assert all(r.ok for r in results.values()), {
                t: r.error for t, r in results.items() if not r.ok}
            fresh = pool.warm_up()
            assert not set(fresh) & set(pids)
        assert observe.counter_value("executor.pool.respawns") > before
        if not was_enabled:
            observe.disable()

    def test_reset_discards_and_respawns(self):
        with WorkerPool(1) as pool:
            before = pool.warm_up()
            pool.reset()
            after = pool.warm_up()
            assert before != after
