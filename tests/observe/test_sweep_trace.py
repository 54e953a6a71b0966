"""Traced sweeps: identical science, well-formed merged traces.

Tracing is an observer — a ``--jobs 4`` sweep with tracing on must
produce a byte-identical ``results.jsonl`` to the same sweep with
tracing off, while the merged ``trace.jsonl`` (spans from the parent
*and* every pool worker) forms a well-nested forest.
"""

from __future__ import annotations

import pytest

from repro import observe
from repro.runtime.dag import StreamGrid
from repro.runtime.sweep import SweepConfig, run_sweep

#: Generous slack for comparing perf_counter readings across processes.
CLOCK_EPS_S = 0.05

SIM_CACHE_KEYS = ("l1_hits", "l1_misses", "l2_hits", "l2_misses",
                  "i_l1_hits", "i_l1_misses", "i_l2_hits", "i_l2_misses")


def sweep(tmp_path, tag, trace):
    config = SweepConfig(
        StreamGrid(workloads=("adpcm",), deadline_fracs=(0.5,)),
        jobs=4,
        cache_dir=str(tmp_path / f"cache-{tag}"),
        output_dir=str(tmp_path / f"out-{tag}"),
        trace=trace,
    )
    report = run_sweep(config)
    assert report.ok, report.failures
    return report


class TestTracedSweep:
    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("traced-sweep")
        return sweep(tmp_path, "dark", False), sweep(tmp_path, "lit", True)

    @pytest.fixture(scope="class")
    def spans(self, reports):
        _dark, lit = reports
        _header, spans = observe.read_trace(lit.trace_path)
        return spans

    @pytest.fixture(scope="class")
    def metrics(self, reports):
        _dark, lit = reports
        return observe.read_metrics(lit.metrics_path)

    def test_results_byte_identical_traced_vs_untraced(self, reports):
        dark, lit = reports
        assert (dark.results_path.read_bytes()
                == lit.results_path.read_bytes())

    def test_untraced_sweep_writes_no_trace(self, reports):
        dark, _lit = reports
        assert dark.trace_path is None and dark.metrics_path is None
        assert not (dark.manifest_path.parent / observe.TRACE_NAME).exists()

    def test_expected_span_names_present(self, spans):
        names = {s["name"] for s in spans}
        assert {"sweep", "executor.run_graph", "executor.task",
                "worker.task", "simulator.run", "solver.solve"} <= names

    def test_spans_from_more_than_one_process(self, spans):
        # jobs=4 really forked: worker spans carry worker pids.
        assert len({s["pid"] for s in spans}) > 1

    def test_span_ids_unique_and_parents_resolve(self, spans):
        ids = [s["id"] for s in spans]
        assert len(ids) == len(set(ids))
        id_set = set(ids)
        orphans = [s["name"] for s in spans
                   if s["parent"] is not None and s["parent"] not in id_set]
        assert orphans == []

    def test_children_nest_inside_their_parents(self, spans):
        by_id = {s["id"]: s for s in spans}
        for child in spans:
            if child["parent"] is None:
                continue
            parent = by_id[child["parent"]]
            assert child["t0"] >= parent["t0"] - CLOCK_EPS_S, (
                f"{child['name']} starts before parent {parent['name']}")
            assert child["t1"] <= parent["t1"] + CLOCK_EPS_S, (
                f"{child['name']} ends after parent {parent['name']}")

    def test_worker_spans_hang_off_executor_task_spans(self, spans):
        by_id = {s["id"]: s for s in spans}
        workers = [s for s in spans if s["name"] == "worker.task"]
        assert workers
        for worker in workers:
            assert by_id[worker["parent"]]["name"] == "executor.task"

    def test_single_sweep_root(self, spans):
        roots = [s for s in spans if s["parent"] is None]
        assert [r["name"] for r in roots] == ["sweep"]

    def test_metrics_cover_every_subsystem(self, metrics):
        counters = metrics["counters"]
        assert counters["executor.tasks.ok"] > 0
        assert counters["simulator.runs"] > 0
        assert counters["simulator.instructions"] > 0
        assert counters["solver.solves"] > 0
        assert counters["cache.artifact.writes"] > 0
        for key in SIM_CACHE_KEYS:
            assert f"simulator.cache.{key}" in counters
        assert metrics["histograms"]["executor.queue_wait_s"]["count"] > 0
        assert metrics["histograms"]["executor.queue_wait_s"]["min"] >= 0

    def test_task_counters_match_the_graph(self, reports, metrics):
        _dark, lit = reports
        assert (metrics["counters"]["executor.tasks.ok"]
                == len(lit.graph.tasks))


class TestEnvVarEnables:
    def test_repro_trace_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(observe.TRACE_ENV, "1")
        report = sweep(tmp_path, "env", trace=False)
        assert report.trace_path is not None
        assert report.trace_path.exists()
        assert report.metrics_path.exists()
        assert not observe.enabled()  # restored afterwards
