"""The ``stream`` side artifact: the profiling run's recording, written by
``profile`` and replayed by ``simulate``.

A stream survives the store round trip exactly, never reaches a task
output, and a stream that is missing, corrupt or recorded from another
run is refused: ``simulate`` then runs the schedule in full and writes
the same row.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import observe
from repro.core import DVSOptimizer
from repro.errors import ProfileError
from repro.profiling.serialize import (
    run_summary_to_dict,
    stream_from_dict,
    stream_to_dict,
)
from repro.resilience.faultplane import damage_file
from repro.runtime import dag, hashing
from repro.runtime.cache import ArtifactStore
from repro.runtime.dag import ExperimentSpec, build_task_graph
from repro.runtime.executor import ExecutorConfig, run_graph
from repro.simulator.machine import ExecutionStream
from repro.verify.generators import random_schedule
from repro.workloads import compile_workload, get_workload

SPEC = ExperimentSpec(workload="adpcm", deadline_frac=0.5)


def _recorded(seed: int = 0):
    spec = dict(SPEC.payload(), seed=seed)
    _, cfg, machine, inputs, registers = dag._context(spec)
    stream = ExecutionStream()
    profile = DVSOptimizer(machine).profile(cfg, inputs=inputs,
                                            registers=registers, record=stream)
    key = hashing.stream_key(get_workload("adpcm").source, spec["category"],
                             seed, machine)
    return cfg, machine, profile, stream, key


def test_store_round_trip_replays_the_same_run():
    cfg, machine, profile, stream, key = _recorded()
    schedule, initial = random_schedule(cfg, len(machine.mode_table),
                                        random.Random(0))
    document = json.loads(json.dumps(stream_to_dict(stream, key)))
    assert len(json.dumps(document)) < len(stream.blocks) * 4 // 10
    loaded = stream_from_dict(document, key, compile_workload("adpcm"),
                              machine.config)
    assert loaded.blocks == stream.blocks and loaded.outcomes == stream.outcomes
    in_memory = machine.replay(stream, schedule=schedule, initial_mode=initial)
    assert in_memory.mode_transitions > 0
    assert (run_summary_to_dict(machine.replay(loaded, schedule=schedule,
                                               initial_mode=initial))
            == run_summary_to_dict(in_memory))


def test_a_stream_recorded_for_another_run_is_refused():
    cfg, machine, _, stream, key = _recorded()
    document = stream_to_dict(stream, key)
    with pytest.raises(ProfileError, match="does not record"):
        stream_from_dict(document, "0" * 64, cfg, machine.config)
    other = compile_workload("dijkstra")
    with pytest.raises(ProfileError, match="does not record"):
        stream_from_dict(document, key, other, machine.config)
    with pytest.raises(ProfileError, match="malformed"):
        stream_from_dict(dict(document, outcomes="not base64!"), key, cfg,
                         machine.config)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A cold single-experiment run whose store holds the stream."""
    store = ArtifactStore(tmp_path_factory.mktemp("store"))
    graph = build_task_graph([SPEC])
    observe.enable(reset=True)
    try:
        results = run_graph(graph, store=store, config=ExecutorConfig(jobs=1))
        counters = {name: observe.counter_value(name) for name in
                    ("simulator.runs", "simulator.scheduled_replays")}
    finally:
        observe.disable()
        observe.reset()
    return store, graph, results, counters


def _task(graph, kind):
    return next(t for t in graph.tasks.values() if t.kind == kind)


def test_cold_run_replays_the_schedule_and_keeps_the_stream_out_of_outputs(cold):
    store, graph, results, counters = cold
    assert counters == {"simulator.runs": 1, "simulator.scheduled_replays": 1}
    for result in results.values():
        assert "stream" not in json.dumps(result.output)
    _, machine, _, _, key = _recorded()
    assert store.get(key)["kind"] == "stream"


def _rerun_simulate(store, graph, tamper):
    """Drop the cached run summary, tamper with the stream, rerun."""
    _, machine, _, stream, key = _recorded()
    store.path_for(_task(graph, "simulate").cache_key).unlink()
    tamper(store, key, stream)
    observe.enable(reset=True)
    try:
        results = run_graph(graph, store=store, config=ExecutorConfig(jobs=1))
        why = {name.rsplit(".", 1)[1]: observe.counter_value(name)
               for name in observe.snapshot()["counters"]
               if name.startswith("verify.full_run.")}
        runs = observe.counter_value("simulator.runs")
    finally:
        observe.disable()
        observe.reset()
    store.put(key, stream_to_dict(stream, key))  # leave the store healthy
    return results, why, runs


def _foreign(store, key, stream):
    _, _, _, other, other_key = _recorded(seed=1)
    store.put(key, stream_to_dict(other, other_key))


def _diverging(store, key, stream):
    store.put(key, dict(stream_to_dict(stream, key),
                        mem_misses=stream.base.mem_misses + 1))


def _damaged(store, key, stream):
    damage_file(store.path_for(key))


def _missing(store, key, stream):
    store.path_for(key).unlink()


@pytest.mark.parametrize("tamper, why", [
    (_foreign, "refused"), (_diverging, "refused"),
    (_damaged, "miss"), (_missing, "miss"),
])
def test_unusable_stream_falls_back_to_a_full_run_with_the_same_row(
        cold, tamper, why):
    store, graph, results, _ = cold
    rerun, reasons, runs = _rerun_simulate(store, graph, tamper)
    assert reasons == {why: 1}
    assert runs == 1
    simulate = _task(graph, "simulate").task_id
    verify = _task(graph, "verify").task_id
    assert rerun[simulate].cache == "miss"
    assert rerun[simulate].output == results[simulate].output
    assert rerun[verify].output == results[verify].output
