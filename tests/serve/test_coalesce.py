"""The coalescing contract: N identical submissions, one DAG run,
byte-identical responses that match a single-shot ``repro sweep``."""

import json
import threading

import pytest

from repro import observe
from repro.runtime.dag import StreamGrid
from repro.runtime.sweep import SweepConfig, run_sweep
from repro.serve import coalesce
from repro.serve.coalesce import JobTable
from repro.serve.protocol import parse_request

REQUEST = {"workload": "adpcm", "deadline_frac": 0.5, "wait": True}


def counter_delta(before: dict, name: str) -> float:
    return observe.counter_value(name) - before.get(name, 0)


class TestConcurrentCoalescing:
    @pytest.fixture(scope="class")
    def fanout(self, uncached_server):
        """Fire 6 identical waiting submissions through one barrier."""
        uncached = uncached_server
        before = {name: observe.counter_value(name)
                  for name in ("serve.requests", "serve.requests.coalesced",
                               "serve.requests.replayed", "serve.dag.runs")}
        n = 6
        barrier = threading.Barrier(n)
        responses: list[tuple[int, bytes]] = [None] * n

        def fire(index: int) -> None:
            barrier.wait()
            responses[index] = uncached.request(
                "POST", "/v1/optimize", REQUEST)

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(180)
        return before, responses

    # The class-scoped fanout needs a class-lived server; the conftest
    # uncached_server is function-scoped, so build one from the factory.
    @pytest.fixture(scope="class")
    def uncached_server(self, server_factory):
        from repro.serve.server import ServeConfig

        instance = server_factory(ServeConfig(port=0, jobs=2, runs=1,
                                              cache_dir=None))
        yield instance
        instance.close()

    def test_every_submission_succeeded(self, fanout):
        _, responses = fanout
        assert all(r is not None and r[0] == 200 for r in responses)

    def test_exactly_one_dag_run(self, fanout):
        before, responses = fanout
        assert counter_delta(before, "serve.dag.runs") == 1
        assert counter_delta(before, "serve.requests") == len(responses)
        deduped = (counter_delta(before, "serve.requests.coalesced")
                   + counter_delta(before, "serve.requests.replayed"))
        assert deduped == len(responses) - 1

    def test_responses_are_byte_identical(self, fanout):
        _, responses = fanout
        bodies = {body for _, body in responses}
        assert len(bodies) == 1

    def test_response_rows_match_cli_sweep(self, fanout, tmp_path_factory):
        """The served rows are the results.jsonl lines, byte for byte."""
        _, responses = fanout
        document = json.loads(responses[0][1])
        served_lines = [
            json.dumps(row, sort_keys=True, separators=(",", ":"))
            for row in document["results"]
        ]
        tmp = tmp_path_factory.mktemp("solo-sweep")
        report = run_sweep(SweepConfig(
            StreamGrid(workloads=("adpcm",), deadline_fracs=(0.5,)),
            output_dir=str(tmp / "out"), cache_dir=None))
        assert report.ok
        sweep_lines = report.results_path.read_text().splitlines()
        assert served_lines == sweep_lines


class TestJobTable:
    def make(self, **fields):
        return parse_request({"workloads": ["adpcm"],
                              "deadline_fracs": [0.5], **fields})

    def test_duplicate_joins_inflight_job(self):
        table = JobTable()
        job, disposition = table.submit(self.make())
        assert disposition == "new"
        twin, second = table.submit(self.make(tenant="other"))
        assert second == "coalesced"
        assert twin is job
        assert job.submissions == 2

    def test_finished_job_replays_from_lru(self):
        table = JobTable()
        job, _ = table.submit(self.make())
        job.state = "done"
        table.finish(job)
        again, disposition = table.submit(self.make())
        assert disposition == "replayed"
        assert again is job

    def test_cancelled_jobs_are_not_replayed(self):
        table = JobTable()
        job, _ = table.submit(self.make())
        job.state = "cancelled"
        table.finish(job)
        _, disposition = table.submit(self.make())
        assert disposition == "new"

    def test_lru_is_bounded(self, monkeypatch):
        monkeypatch.setattr(coalesce, "DONE_CAPACITY", 2)
        table = JobTable()
        fracs = (0.1, 0.2, 0.3)
        jobs = []
        for frac in fracs:
            request = parse_request({"workloads": ["adpcm"],
                                     "deadline_fracs": [frac]})
            job, _ = table.submit(request)
            job.state = "done"
            table.finish(job)
            jobs.append(job)
        assert len(table.done) == 2
        # The oldest entry fell out; resubmitting it is "new" again.
        _, disposition = table.submit(
            parse_request({"workloads": ["adpcm"],
                           "deadline_fracs": [0.1]}))
        assert disposition == "new"

    def test_lookup_by_job_id(self):
        table = JobTable()
        job, _ = table.submit(self.make())
        assert table.get(job.job_id) is job
        assert table.get("job-missing") is None
