"""Sweep determinism and manifest contracts.

The scientific record of a sweep must not depend on how it was
scheduled: ``--jobs 4`` and ``--jobs 1`` over the same grid produce
byte-identical ``results.jsonl`` files, and manifests that differ only
in wall-clock fields.  Per-task inputs (seeds, categories, deadlines)
are derived from the grid spec alone, never from worker state.
"""

import pytest

from repro.runtime import manifest as manifest_mod
from repro.runtime.dag import StreamGrid
from repro.runtime.sweep import SweepConfig, run_sweep

WORKLOADS = ("adpcm", "dijkstra", "ghostscript")


def sweep(tmp_path, tag, jobs):
    config = SweepConfig(
        StreamGrid(workloads=WORKLOADS, deadline_fracs=(0.5,)),
        jobs=jobs,
        cache_dir=str(tmp_path / f"cache-{tag}"),
        output_dir=str(tmp_path / f"out-{tag}"),
    )
    report = run_sweep(config)
    assert report.ok, report.failures
    return report


class TestDeterminism:
    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("determinism")
        return sweep(tmp_path, "seq", 1), sweep(tmp_path, "par", 4)

    def test_results_files_are_byte_identical(self, reports):
        sequential, parallel = reports
        assert (sequential.results_path.read_bytes()
                == parallel.results_path.read_bytes())

    def test_manifests_agree_modulo_timing(self, reports):
        sequential, parallel = reports

        def scrubbed(report):
            records = list(manifest_mod.read_jsonl(report.manifest_path))
            out = []
            for record in records:
                record = manifest_mod.scrub_timings(record)
                # Operational fields that differ by construction.
                record.pop("cache_dir", None)
                record.pop("jobs", None)
                out.append(record)
            return out

        assert scrubbed(sequential) == scrubbed(parallel)

    def test_results_are_sorted_by_experiment_id(self, reports):
        sequential, _ = reports
        ids = [r["experiment"]
               for r in manifest_mod.read_jsonl(sequential.results_path)]
        assert ids == sorted(ids)
        assert len(ids) == len(WORKLOADS)

    def test_every_experiment_verified(self, reports):
        _, parallel = reports
        for record in manifest_mod.read_jsonl(parallel.results_path):
            assert record["status"] == "ok"
            assert record["verified"] is True
            assert record["checks"]["deadline_met"] is True
            assert record["checks"]["result_preserved"] is True

    def test_manifest_has_header_tasks_and_summary(self, reports):
        sequential, _ = reports
        records = list(manifest_mod.read_jsonl(sequential.manifest_path))
        assert records[0]["type"] == "header"
        assert records[-1]["type"] == "summary"
        tasks = [r for r in records if r["type"] == "task"]
        assert len(tasks) == len(sequential.results)
        assert all("wall_time_s" in t and "cache" in t for t in tasks)

    def test_solver_stats_recorded_for_optimize_tasks(self, reports):
        sequential, _ = reports
        optimize = [r for r in manifest_mod.read_jsonl(sequential.manifest_path)
                    if r["type"] == "task" and r["kind"] == "optimize"]
        assert optimize
        for record in optimize:
            assert record["solver_status"] == "optimal"
            assert record["solver_time_s"] > 0


class TestGrid:
    def test_grid_is_the_full_cross_product(self):
        grid = StreamGrid(
            workloads=("adpcm", "gsm"),
            deadline_fracs=(0.3, 0.7),
            levels=(None, 7),
        ).experiments()
        assert len(grid) == 8
        assert len({e.experiment_id for e in grid}) == 8

    def test_bad_fraction_rejected(self):
        from repro.errors import OrchestrationError

        with pytest.raises(OrchestrationError):
            StreamGrid(workloads=("adpcm",), deadline_fracs=(1.5,))

    def test_unknown_workload_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            StreamGrid(workloads=("doom",))
