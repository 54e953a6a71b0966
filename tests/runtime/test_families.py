"""One graph builder, task dispatcher and record reducer for every
experiment family: a grid may mix single-stream and taskgraph points."""

import json

import pytest

from repro.errors import OrchestrationError
from repro.runtime.dag import ExperimentSpec, MachineSpec, execute_task
from repro.runtime.sweep import SweepConfig, build_grid, run_sweep
from repro.taskgraph.pipeline import build_tg_grid


def _stream():
    return build_grid(SweepConfig(workloads=("adpcm",), deadline_fracs=(0.5,)))


def _taskgraph():
    return build_tg_grid(shapes=("fork-join",), tasks=4, cores=(1,),
                         deadline_fracs=(0.5,))


def _sweep(tmp_path, tag, experiments):
    report = run_sweep(SweepConfig(workloads=(), output_dir=str(tmp_path / tag)),
                       experiments=experiments)
    return report, report.results_path.read_text().splitlines()


def test_a_mixed_grid_writes_each_familys_own_rows(tmp_path):
    mixed, lines = _sweep(tmp_path, "mixed", _stream() + _taskgraph())
    _, stream = _sweep(tmp_path, "stream", _stream())
    _, taskgraph = _sweep(tmp_path, "taskgraph", _taskgraph())
    assert len(mixed.graph.tasks) == 8
    assert len(lines) == 2
    assert lines == sorted(stream + taskgraph,
                           key=lambda line: json.loads(line)["experiment"])
    assert all(json.loads(line)["status"] == "ok" for line in lines)


def test_specs_rebuild_from_their_payloads():
    spec = ExperimentSpec("adpcm", 0.5, machine=MachineSpec(levels=7,
                                                            capacitance_uf=5.0))
    rebuilt = ExperimentSpec.from_payload(spec.payload())
    assert rebuilt.experiment_id == spec.experiment_id
    assert rebuilt.machine == spec.machine
    assert MachineSpec.from_payload(_taskgraph()[0].payload()) == MachineSpec()


def test_an_unknown_task_kind_is_refused():
    with pytest.raises(OrchestrationError, match="unknown task kind"):
        execute_task("tg-bogus", {}, {})
