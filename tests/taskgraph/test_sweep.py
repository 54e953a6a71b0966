"""Taskgraph sweeps through the content-addressed DAG runtime.

The scheduling contract carries over from the single-stream family:
``--jobs 4`` and ``--jobs 1`` produce byte-identical ``results.jsonl``,
artifacts are cached by graph fingerprint, and a journaled run resumes
without recomputing finished tasks.
"""

import pytest

from repro.errors import OrchestrationError
from repro.runtime import manifest as manifest_mod
from repro.runtime.dag import build_task_graph
from repro.runtime.sweep import SweepConfig, run_sweep
from repro.taskgraph.pipeline import TaskGraphExperimentSpec, TaskGraphGrid

GRID = dict(shapes=("fork-join",), tasks=5, cores=(1, 2),
            deadline_fracs=(0.0, 0.5))


def tg_sweep(tmp_path, tag, jobs, cache_dir=None, resume=False):
    config = SweepConfig(
        TaskGraphGrid(**GRID),
        jobs=jobs,
        cache_dir=cache_dir,
        output_dir=str(tmp_path / f"out-{tag}"),
        resume=resume,
    )
    report = run_sweep(config)
    return report


class TestGrid:
    def test_grid_is_the_cartesian_product(self):
        grid = TaskGraphGrid(**GRID).experiments()
        assert len(grid) == 4
        assert all(isinstance(e, TaskGraphExperimentSpec) for e in grid)
        assert len({e.experiment_id for e in grid}) == 4

    def test_grid_rejects_bad_axes(self):
        with pytest.raises(OrchestrationError):
            TaskGraphGrid(shapes=("mesh",), tasks=5, cores=(1,),
                          deadline_fracs=(0.5,))
        with pytest.raises(OrchestrationError):
            TaskGraphGrid(shapes=("fork-join",), tasks=5, cores=(0,),
                          deadline_fracs=(0.5,))
        with pytest.raises(OrchestrationError):
            TaskGraphGrid(shapes=("fork-join",), tasks=5, cores=(1,),
                          deadline_fracs=(1.5,))

    def test_tables_task_is_shared_per_graph(self):
        graph = build_task_graph(TaskGraphGrid(**GRID).experiments())
        kinds = {}
        for task in graph.tasks.values():
            kinds[task.kind] = kinds.get(task.kind, 0) + 1
        # One shared profiling task; solve/simulate/verify per point.
        assert kinds["tg-tables"] == 1
        assert kinds["tg-solve"] == kinds["tg-simulate"] == 4
        assert kinds["tg-verify"] == 4


class TestDeterminism:
    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("tg-determinism")
        return (tg_sweep(tmp_path, "seq", jobs=1),
                tg_sweep(tmp_path, "par", jobs=4))

    def test_results_files_are_byte_identical(self, reports):
        sequential, parallel = reports
        assert (sequential.results_path.read_bytes()
                == parallel.results_path.read_bytes())

    def test_every_experiment_verified(self, reports):
        sequential, _ = reports
        records = list(manifest_mod.read_jsonl(sequential.results_path))
        assert len(records) == 4
        for record in records:
            assert record["status"] == "ok"
            assert record["verified"] is True
            assert record["checks"]["energy_predicted"] is True
            assert record["checks"]["deadline_met"] is True
            assert record["family"] == "taskgraph"

    def test_record_excludes_solver_timing(self, reports):
        sequential, _ = reports
        for record in manifest_mod.read_jsonl(sequential.results_path):
            assert "solver_method" not in record
            assert "solve_time_s" not in record

    def test_milp_never_worse_than_greedy(self, reports):
        sequential, _ = reports
        for record in manifest_mod.read_jsonl(sequential.results_path):
            assert record["savings_vs_greedy"] >= -1e-6


class TestCaching:
    def test_second_run_hits_the_artifact_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = tg_sweep(tmp_path, "cold", jobs=1, cache_dir=cache)
        warm = tg_sweep(tmp_path, "warm", jobs=1, cache_dir=cache)
        assert cold.cache_stats["misses"] > 0
        # tg-verify is deliberately uncached; everything else replays:
        # one shared tg-tables plus a solve and a simulate per point.
        assert warm.cache_stats["hits"] >= 2 * len(cold.experiment_records) + 1
        assert (cold.results_path.read_bytes()
                == warm.results_path.read_bytes())


class TestResume:
    def test_journal_replay_skips_finished_tasks(self, tmp_path):
        first = tg_sweep(tmp_path, "resumable", jobs=1)
        report = tg_sweep(tmp_path, "resumable", jobs=1, resume=True)
        assert report.resumed_tasks > 0
        assert (first.results_path.read_bytes()
                == report.results_path.read_bytes())
