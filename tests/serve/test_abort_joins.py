"""An aborted server leaves no run thread behind.

``tests/serve/test_resume.py`` aborts a server with a job in flight and
then starts a second one in the same process.  Run on its own (so numpy
is not yet imported), the aborted server's run thread used to be still
importing the task stack when the second server forked its workers; a
worker inherited the held import lock and the file hung.  This runs that
file alone, in a fresh interpreter, under a timeout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

RESUME_TESTS = Path(__file__).with_name("test_resume.py")
ROOT = RESUME_TESTS.parents[2]
TIMEOUT_S = 120


def test_resume_file_passes_when_run_alone():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(RESUME_TESTS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]


def test_abort_joins_the_run_thread(server_factory, tmp_path):
    from repro.serve.server import ServeConfig

    server = server_factory(ServeConfig(port=0, jobs=1, runs=1,
                                        cache_dir=str(tmp_path / "cache"),
                                        store_dir=str(tmp_path / "jobs")))
    status, _ = server.post_json("/v1/optimize",
                                 {"workload": "adpcm", "deadline_frac": 0.5})
    assert status in (200, 202)
    threads = server.server._run_threads
    server.abort()
    assert not any(t.is_alive() for t in threads._threads)
