"""The /v1/taskgraph protocol: canonical keys, grids and queue cost."""

import pytest

from repro.errors import ProtocolError
from repro.serve.protocol import from_canonical, parse_request
from repro.serve.queueing import FairQueue
from repro.taskgraph.pipeline import TaskGraphGrid

REQUEST = {"shapes": ["fork-join"], "tasks": 5, "cores": [1, 2],
           "deadline_fracs": [0.0, 0.5]}


def parse(document=None, **overrides):
    body = dict(REQUEST if document is None else document)
    body.update(overrides)
    return parse_request(body, endpoint="taskgraph")


class TestCanonicalization:
    def test_axes_are_sorted_and_deduplicated(self):
        a = parse(shapes=["layered", "fork-join", "layered"],
                  cores=[2, 1, 2], deadline_fracs=[0.5, 0.0, 0.5])
        b = parse(shapes=["fork-join", "layered"], cores=[1, 2],
                  deadline_fracs=[0.0, 0.5])
        assert a.request_key == b.request_key

    def test_singular_spellings_agree(self):
        a = parse({"shape": "fork-join", "tasks": 5, "cores": [1, 2],
                   "deadline_frac": 0.5})
        b = parse({"shapes": ["fork-join"], "tasks": 5, "cores": [1, 2],
                   "deadline_fracs": [0.5]})
        assert a.request_key == b.request_key

    def test_explicit_defaults_do_not_change_identity(self):
        a = parse()
        b = parse(seed=0, capacitance_uf=10.0, solver_backend="auto",
                  levels=None)
        assert a.request_key == b.request_key

    def test_tenant_and_wait_are_not_identity(self):
        a = parse(tenant="alice", wait=True)
        b = parse(tenant="bob")
        assert a.request_key == b.request_key
        assert a.tenant == "alice" and a.wait

    def test_different_science_different_key(self):
        keys = {parse().request_key,
                parse(tasks=6).request_key,
                parse(cores=[1, 2, 3]).request_key,
                parse(seed=1).request_key}
        assert len(keys) == 4

    def test_taskgraph_and_sweep_keys_never_collide(self):
        tg = parse()
        sweep = parse_request({"workloads": ["adpcm"],
                               "deadline_fracs": [0.5]})
        assert tg.request_key != sweep.request_key
        assert tg.canonical["type"] == "taskgraph"
        assert "type" not in sweep.canonical


class TestGrid:
    def test_grid_matches_the_cli_sweep(self):
        parsed = parse()
        cli = TaskGraphGrid(shapes=("fork-join",), tasks=5, cores=(1, 2),
                            deadline_fracs=(0.0, 0.5)).experiments()
        assert ([e.experiment_id for e in parsed.experiments]
                == [e.experiment_id for e in cli])

    def test_grid_limit_is_enforced(self):
        with pytest.raises(ProtocolError, match="at most"):
            parse_request(dict(REQUEST, cores=list(range(1, 33))),
                          endpoint="taskgraph", max_grid=8)

    def test_canonical_round_trips_to_the_same_experiments(self):
        parsed = parse()
        rebuilt = from_canonical(parsed.canonical).experiments
        assert ([e.experiment_id for e in rebuilt]
                == [e.experiment_id for e in parsed.experiments])

    def test_from_canonical_recovers_the_same_key(self):
        parsed = parse(tenant="alice", wait=True)
        recovered = from_canonical(parsed.canonical, tenant="alice",
                                   wait=True)
        assert recovered.request_key == parsed.request_key
        assert recovered.canonical == parsed.canonical


class TestValidation:
    def test_shapes_are_required(self):
        with pytest.raises(ProtocolError, match="shapes"):
            parse_request({"tasks": 5}, endpoint="taskgraph")

    def test_unknown_shape_rejected(self):
        with pytest.raises(ProtocolError):
            parse(shapes=["mesh"])

    def test_task_count_bounds(self):
        with pytest.raises(ProtocolError):
            parse(tasks=2)
        with pytest.raises(ProtocolError):
            parse(tasks=99)

    def test_core_bounds(self):
        with pytest.raises(ProtocolError):
            parse(cores=[0])
        with pytest.raises(ProtocolError):
            parse(cores=[65])

    def test_sweep_fields_rejected_on_taskgraph(self):
        with pytest.raises(ProtocolError, match="unknown request field"):
            parse(workloads=["adpcm"])

    def test_taskgraph_fields_rejected_on_sweep(self):
        with pytest.raises(ProtocolError, match="unknown request field"):
            parse_request({"workloads": ["adpcm"], "shapes": ["fork-join"]})


class TestQueueCost:
    def test_cost_scales_with_tasks_and_grid(self):
        small = parse()
        big = parse(tasks=8, cores=[1, 2, 3])
        # 5 tasks x 4 grid points vs 8 tasks x 6 grid points.
        assert small.cost == 5 * 4
        assert big.cost == 8 * 6
        assert big.cost > small.cost

    def test_sweep_requests_still_cost_one_per_experiment(self):
        sweep = parse_request({"workloads": ["adpcm", "gsm"],
                               "deadline_fracs": [0.35, 0.7]})
        assert sweep.cost == len(sweep.experiments) == 4

    def test_fair_queue_weights_by_cost(self):
        """A bulky taskgraph tenant cannot starve a small sweep tenant:
        after one heavy job, the cheap tenant's jobs jump the line."""
        queue = FairQueue()
        heavy = parse(tasks=8, cores=[1, 2, 3, 4])
        light = parse_request({"workloads": ["adpcm"],
                               "deadline_fracs": [0.5]})
        queue.push("bulk", heavy.cost, "bulk-0")
        queue.push("bulk", heavy.cost, "bulk-1")
        queue.push("small", light.cost, "small-0")
        first, second = queue.pop(), queue.pop()
        assert "small-0" in (first, second)
        assert queue.pop() == "bulk-1"
