"""A warm served request resolves in the server process.

Every artifact is in the store, so the graph is cache hits plus the
``verify`` tasks, which run inline on the run thread: nothing is sent
to the warm worker pool, and the rows are still ``repro sweep``'s.
"""

import json

import pytest

from repro import observe
from repro.runtime.dag import StreamGrid
from repro.runtime.sweep import SweepConfig, run_sweep
from repro.serve.server import ServeConfig

COLD = {"workloads": ["adpcm"], "deadline_fracs": [0.35, 0.5], "wait": True}
WARM = {"workloads": ["adpcm"], "deadline_fracs": [0.5], "wait": True}
#: Shares the profile WARM read from disk: the server's LRU serves it.
AGAIN = {"workloads": ["adpcm"], "deadline_fracs": [0.35], "wait": True}


@pytest.fixture(scope="module")
def served(server_factory, tmp_path_factory):
    """(kinds sent to the pool cold, then warm; the warm body; LRU hits
    of a request reading what an earlier one read)."""
    cache = tmp_path_factory.mktemp("inline-cache")
    instance = server_factory(ServeConfig(port=0, jobs=2, runs=2,
                                          cache_dir=str(cache)))
    kinds: list[str] = []
    submit = instance.server.pool.submit

    def recording_submit(fn, *args):
        if args and isinstance(args[0], dict) and "kind" in args[0]:
            kinds.append(args[0]["kind"])
        return submit(fn, *args)

    instance.server.pool.submit = recording_submit
    try:
        cold_status, _ = instance.request("POST", "/v1/sweep", COLD)
        cold_kinds = list(kinds)
        kinds.clear()
        warm_status, body = instance.request("POST", "/v1/sweep", WARM)
        before = observe.counter_value("cache.artifact.lru_hits")
        again_status, _ = instance.request("POST", "/v1/sweep", AGAIN)
        lru_hits = observe.counter_value("cache.artifact.lru_hits") - before
    finally:
        instance.close()
    assert (cold_status, warm_status, again_status) == (200, 200, 200)
    return cold_kinds, list(kinds), body, lru_hits


def test_warm_grid_submits_nothing_to_the_pool(served):
    cold_kinds, warm_kinds, _, _ = served
    assert "verify" not in cold_kinds and "profile" in cold_kinds
    assert warm_kinds == []


def test_warm_grid_reads_the_store_through_the_lru(served):
    *_, lru_hits = served
    assert lru_hits >= 1


def test_served_rows_are_the_sweep_results_bytes(served, tmp_path):
    _, _, body, _ = served
    rows = json.loads(body)["results"]
    assert rows and all(row["verified"] is True for row in rows)
    served_lines = [json.dumps(row, sort_keys=True, separators=(",", ":"))
                    for row in rows]
    report = run_sweep(SweepConfig(
        StreamGrid(workloads=WARM["workloads"],
                   deadline_fracs=WARM["deadline_fracs"]),
        output_dir=str(tmp_path / "out"), cache_dir=None))
    assert report.ok
    assert served_lines == report.results_path.read_text().splitlines()
