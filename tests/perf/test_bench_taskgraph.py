"""Bench documents: taskgraph MILP cases and the cross-bench summary."""

import json
from pathlib import Path

from repro.perf.bench_taskgraph import BENCH_FORMAT, run_taskgraph_bench
from repro.perf.harness import run_summary
from repro.perf.harness import write_document as write_bench_json
from repro.perf.harness import write_document as write_summary_json

#: A graph this small solves in well under a second per core count.
FAST = dict(tasks=4, cores=(1, 2), deadline_frac=0.5)


class TestTaskgraphBench:
    def test_document_shape_and_verification(self, tmp_path):
        document = run_taskgraph_bench(**FAST)
        assert document["format"] == BENCH_FORMAT
        assert document["benchmark"] == "taskgraph-milp"
        assert document["graph_tasks"] == 4
        assert len(document["cases"]) == 2
        assert document["all_verified"] is True
        assert document["headline_solve_s"] > 0
        assert 0.0 <= document["headline_gap"] <= 1.0
        for case in document["cases"]:
            assert case["milp_energy_nj"] <= case["greedy_energy_nj"] * (
                1 + 1e-6)
        path = write_bench_json(document, tmp_path / "BENCH_taskgraph.json")
        assert json.loads(path.read_text()) == document


class TestSummary:
    def test_aggregates_and_deltas(self, tmp_path):
        bench_dir = tmp_path / "bench"
        baseline_dir = tmp_path / "baseline"
        bench_dir.mkdir()
        baseline_dir.mkdir()
        document = run_taskgraph_bench(**FAST)
        write_bench_json(document, bench_dir / "BENCH_taskgraph.json")
        baseline = dict(document, headline_solve_s=document[
            "headline_solve_s"] * 2)
        write_bench_json(baseline, baseline_dir / "BENCH_taskgraph.json")

        summary = run_summary(bench_dir, baseline_dir)
        entry = summary["benches"]["taskgraph"]
        assert entry["headline"]["all_verified"] is True
        deltas = entry["deltas"]["headline_solve_s"]
        assert deltas["delta"] < 0  # current is faster than the baseline
        assert deltas["delta_rel"] == -0.5
        # Absent benches are reported, never fatal.
        assert "BENCH_solver.json" in summary["missing"]
        assert "BENCH_serve.json" in summary["missing"]

        path = write_summary_json(summary, tmp_path / "BENCH_summary.json")
        assert json.loads(path.read_text()) == summary

    def test_missing_baseline_keeps_headline(self, tmp_path):
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        write_bench_json(run_taskgraph_bench(**FAST),
                         bench_dir / "BENCH_taskgraph.json")
        summary = run_summary(bench_dir, tmp_path / "nothing-here")
        entry = summary["benches"]["taskgraph"]
        assert entry["deltas"] is None
        assert entry["headline"]["headline_gap"] is not None

    def test_tracked_repo_baseline_parses(self):
        """The committed baseline must stay loadable by the summary."""
        tracked = Path(__file__).parents[2] / "benchmarks" / "results"
        summary = run_summary(tracked, tracked)
        entry = summary["benches"]["taskgraph"]
        assert entry["format"] == BENCH_FORMAT
        assert entry["headline"]["all_verified"] is True
        for delta in entry["deltas"].values():
            assert delta["delta"] == 0
