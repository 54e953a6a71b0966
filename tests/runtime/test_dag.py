"""Task-graph construction: dedup, topology, validation."""

import pytest

from repro.errors import OrchestrationError, ReproError
from repro.runtime.dag import (
    TASK_KINDS,
    ExperimentSpec,
    MachineSpec,
    Task,
    TaskGraph,
    build_task_graph,
)


def exp(workload="adpcm", frac=0.5, **kwargs):
    return ExperimentSpec(workload=workload, deadline_frac=frac, **kwargs)


class TestGraphShape:
    def test_single_experiment_pipeline(self):
        graph = build_task_graph([exp()])
        kinds = sorted(t.kind for t in graph.tasks.values())
        assert kinds == sorted(TASK_KINDS)
        assert TASK_KINDS == ("profile", "optimize", "simulate", "verify")

    def test_deps_follow_the_pipeline(self):
        graph = build_task_graph([exp()])
        by_kind = {t.kind: t for t in graph.tasks.values()}
        assert by_kind["profile"].deps == ()
        assert by_kind["optimize"].deps == (by_kind["profile"].task_id,)
        assert by_kind["simulate"].deps == (by_kind["optimize"].task_id,)
        assert set(by_kind["verify"].deps) == {
            by_kind["profile"].task_id,
            by_kind["optimize"].task_id,
            by_kind["simulate"].task_id,
        }

    def test_topo_order_respects_deps(self):
        graph = build_task_graph([exp(frac=f) for f in (0.3, 0.5, 0.7)])
        order = graph.topo_order()
        position = {tid: i for i, tid in enumerate(order)}
        for task in graph.tasks.values():
            for dep in task.deps:
                assert position[dep] < position[task.task_id]


class TestDedup:
    def test_shared_stages_deduplicate_across_deadlines(self):
        graph = build_task_graph([exp(frac=f) for f in (0.3, 0.5, 0.7)])
        kinds = [t.kind for t in graph.tasks.values()]
        # One profile serves all three deadlines.
        assert kinds.count("profile") == 1
        assert kinds.count("optimize") == 3
        assert kinds.count("verify") == 3
        assert len(kinds) == 1 + 3 * 3
        profile = next(t for t in graph.tasks.values() if t.kind == "profile")
        assert len(profile.experiments) == 3

    def test_different_machines_do_not_share(self):
        graph = build_task_graph([
            exp(frac=0.5),
            exp(frac=0.5, machine=MachineSpec(levels=7)),
        ])
        kinds = [t.kind for t in graph.tasks.values()]
        assert kinds.count("profile") == 2

    def test_duplicate_grid_point_rejected(self):
        with pytest.raises(OrchestrationError):
            build_task_graph([exp(), exp()])

    def test_empty_grid_rejected(self):
        with pytest.raises(OrchestrationError):
            build_task_graph([])

    def test_unknown_workload_rejected_at_build_time(self):
        with pytest.raises(ReproError):
            build_task_graph([exp(workload="doom")])


class TestCacheKeys:
    def test_expensive_stages_are_keyed(self):
        graph = build_task_graph([exp()])
        keyed = {t.kind for t in graph.tasks.values() if t.cache_key}
        assert keyed == {"profile", "optimize", "simulate"}

    def test_cheap_stages_are_not(self):
        graph = build_task_graph([exp()])
        unkeyed = {t.kind for t in graph.tasks.values() if not t.cache_key}
        assert unkeyed == {"verify"}

    def test_deadline_only_affects_downstream_keys(self):
        g1 = build_task_graph([exp(frac=0.3)])
        g2 = build_task_graph([exp(frac=0.7)])
        key = lambda g, kind: next(
            t.cache_key for t in g.tasks.values() if t.kind == kind)
        assert key(g1, "profile") == key(g2, "profile")
        assert key(g1, "optimize") != key(g2, "optimize")


class TestValidation:
    def test_dangling_dep_rejected(self):
        task = Task(task_id="a", kind="profile", spec={}, deps=("ghost",))
        graph = TaskGraph(tasks={"a": task}, experiments=[])
        with pytest.raises(OrchestrationError):
            graph.validate()

    def test_cycle_rejected(self):
        tasks = {
            "a": Task(task_id="a", kind="profile", spec={}, deps=("b",)),
            "b": Task(task_id="b", kind="profile", spec={}, deps=("a",)),
        }
        with pytest.raises(OrchestrationError):
            TaskGraph(tasks=tasks, experiments=[]).topo_order()


class TestExperimentIds:
    def test_default_category_resolves_to_concrete_name(self):
        spec = exp(workload="mpeg")
        assert spec.resolved_category() == "no_b"
        assert "mpeg.no_b." in spec.experiment_id

    def test_explicit_default_category_shares_identity(self):
        implicit = exp(workload="mpeg")
        explicit = exp(workload="mpeg", category="no_b")
        assert implicit.experiment_id == explicit.experiment_id
