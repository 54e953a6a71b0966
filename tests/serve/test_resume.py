"""Kill -> ``--resume`` recovery tests against live in-process servers,
and a spawned server whose pool workers must not outlive a SIGKILL."""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import sys
import time
import warnings

import pytest

from repro import observe
from repro.resilience.campaign import _server_env, _spawn_server
from repro.serve import protocol
from repro.serve.client import ReproClient
from repro.serve.jobstore import JobStore
from repro.serve.server import ServeConfig

BODY = {"workload": "adpcm", "deadline_frac": 0.5}


def _config(tmp_path, resume=False):
    return ServeConfig(port=0, jobs=1, runs=1,
                       cache_dir=str(tmp_path / "cache"),
                       store_dir=str(tmp_path / "jobs"),
                       resume=resume)


def _poll_done(server, job_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, document = server.get_json(f"/v1/jobs/{job_id}")
        if status == 200 and document["job"]["state"] in ("done", "failed"):
            return document
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} never finished")


def test_resume_requires_store_dir():
    from repro.errors import ServeError
    with pytest.raises(ServeError):
        __import__("repro.serve.server", fromlist=["ReproServer"]).ReproServer(
            ServeConfig(port=0, resume=True))


def test_finished_job_replays_byte_identically(server_factory, tmp_path):
    first = server_factory(_config(tmp_path))
    status, body = first.post_json("/v1/optimize", dict(BODY, wait=True))
    assert status == 200
    first.abort()  # crash, not drain

    replayed_before = observe.counter_value("serve.jobs.replayed")
    second = server_factory(_config(tmp_path, resume=True))
    try:
        job_id = protocol.parse_request(BODY).job_id
        status, document = second.get_json(f"/v1/jobs/{job_id}")
        assert status == 200
        assert document["job"]["state"] == "done"
        # Byte-identity: the rows come back exactly as first served.
        assert document["results"] == body["results"]
        assert document["degraded"] == body["degraded"]
        assert (observe.counter_value("serve.jobs.replayed")
                == replayed_before + 1)
        # Replay must not have cost a DAG run on the new server.
        _, metrics = second.get_json("/v1/metrics")
        assert metrics["counters"].get("serve.jobs.replayed", 0) >= 1
    finally:
        second.close()


def test_interrupted_job_is_recovered_and_completes(server_factory, tmp_path):
    first = server_factory(_config(tmp_path))
    status, accepted = first.post_json("/v1/optimize", BODY)
    assert status in (200, 202)
    job_id = accepted["job"]["id"]
    first.abort()  # the job is queued or running: admitted, never finished

    recovered_before = observe.counter_value("serve.jobs.recovered")
    second = server_factory(_config(tmp_path, resume=True))
    try:
        document = _poll_done(second, job_id)
        assert document["job"]["state"] == "done"
        assert document["results"]
        assert all(row["status"] == "ok" for row in document["results"])
        assert (observe.counter_value("serve.jobs.recovered")
                > recovered_before)
    finally:
        second.close()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_recovery_leaves_no_unawaited_stream_wakeup(server_factory, tmp_path,
                                                    monkeypatch):
    """Aborting a server with a job in flight, then resuming it, leaves
    no progress-event wake-up behind as a never-awaited coroutine."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", RuntimeWarning)
        test_interrupted_job_is_recovered_and_completes(server_factory,
                                                        tmp_path)
        gc.collect()
    problems = [str(w.message) for w in seen
                if issubclass(w.category, RuntimeWarning)]
    problems += [repr(u.exc_value) for u in unraisable]
    assert not problems, problems


def test_hand_written_admission_is_recovered(server_factory, tmp_path):
    """A journal with only an admit record boots into a running job."""
    parsed = protocol.parse_request(BODY)
    store = JobStore(tmp_path / "jobs")
    store.start()
    store.admit(parsed.request_key, parsed.job_id, "anon", parsed.canonical)
    store.close()

    server = server_factory(_config(tmp_path, resume=True))
    try:
        document = _poll_done(server, parsed.job_id)
        assert document["job"]["state"] == "done"
        assert document["results"]
    finally:
        server.close()


def test_fresh_start_truncates_stale_store(server_factory, tmp_path):
    """Without --resume the store is reset, not replayed."""
    parsed = protocol.parse_request(BODY)
    store = JobStore(tmp_path / "jobs")
    store.start()
    store.admit(parsed.request_key, parsed.job_id, "anon", parsed.canonical)
    store.close()

    server = server_factory(_config(tmp_path, resume=False))
    try:
        status, _ = server.request("GET", f"/v1/jobs/{parsed.job_id}")
        assert status == 404
    finally:
        server.close()
    jobs = JobStore(tmp_path / "jobs").load()
    assert jobs == {}


def test_sigkilled_server_leaves_no_pool_workers(tmp_path):
    """Pool workers exit when their server dies without a drain."""
    server = _spawn_server(["--jobs", "1", "--no-cache"],
                           tmp_path / "serve.log", _server_env(), 90.0)
    pids: list[int] = []
    try:
        client = ReproClient(server.host, server.port)
        pids = client.get_json("/healthz").document["pool"]["pids"]
        assert pids
        server.sigkill()
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(_alive(pid) for pid in pids), pids
    finally:
        server.ensure_dead()
        for pid in filter(_alive, pids):  # never leak one past the test
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (an unreaped zombie counts as gone)."""
    if os.path.isdir("/proc/self"):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
