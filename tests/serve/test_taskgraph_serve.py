"""End-to-end /v1/taskgraph serving: verified rows and coalescing."""

import threading

from repro import observe

#: Small enough that the MILP solves in well under a second per point.
REQUEST = {"shapes": ["fork-join"], "tasks": 4, "cores": [1],
           "deadline_fracs": [0.5], "wait": True}


class TestTaskgraphRoundTrip:
    def test_wait_submit_returns_verified_rows(self, live_server):
        status, body = live_server.post_json("/v1/taskgraph", REQUEST)
        assert status == 200
        assert body["request"]["type"] == "taskgraph"
        assert body["request"]["shapes"] == ["fork-join"]
        rows = body["results"]
        assert len(rows) == 1
        assert rows[0]["family"] == "taskgraph"
        assert rows[0]["status"] == "ok"
        assert rows[0]["verified"] is True
        assert rows[0]["checks"]["energy_predicted"] is True

    def test_rows_match_a_direct_sweep_of_the_same_grid(self, live_server,
                                                        tmp_path):
        from repro.runtime.sweep import SweepConfig, run_sweep
        from repro.taskgraph.pipeline import TaskGraphGrid

        _, body = live_server.post_json("/v1/taskgraph", REQUEST)
        grid = TaskGraphGrid(shapes=("fork-join",), tasks=4, cores=(1,),
                             deadline_fracs=(0.5,))
        report = run_sweep(
            SweepConfig(grid, jobs=1, output_dir=str(tmp_path / "direct")))
        assert body["results"] == report.experiment_records

    def test_invalid_taskgraph_request_is_400(self, live_server):
        status, body = live_server.post_json(
            "/v1/taskgraph", {"shapes": ["mesh"]})
        assert status == 400
        assert "error" in body


class TestTaskgraphCoalescing:
    def test_identical_submissions_share_one_run(self, uncached_server):
        """Concurrent duplicates coalesce onto a single DAG execution
        and every caller gets the same verified rows."""
        server = uncached_server
        before = {name: observe.counter_value(name)
                  for name in ("serve.requests.coalesced", "serve.dag.runs")}
        n = 4
        barrier = threading.Barrier(n)
        responses: list[tuple[int, bytes]] = [None] * n

        def fire(index: int) -> None:
            barrier.wait()
            responses[index] = server.request("POST", "/v1/taskgraph",
                                             REQUEST)

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(180)

        statuses = {status for status, _ in responses}
        assert statuses == {200}
        payloads = {payload for _, payload in responses}
        assert len(payloads) == 1  # byte-identical responses
        runs = (observe.counter_value("serve.dag.runs")
                - before["serve.dag.runs"])
        coalesced = (observe.counter_value("serve.requests.coalesced")
                     - before["serve.requests.coalesced"])
        assert runs == 1
        assert coalesced == n - 1
