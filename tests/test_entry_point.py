"""``python -m repro`` pins BLAS to one thread before numpy loads.

The pin must be in the environment at the moment numpy is first
imported (OpenBLAS reads it once, at load time), so a ``sys.meta_path``
hook records ``os.environ`` on that first import while a cold ``repro
sweep`` runs through :mod:`runpy`, exactly as ``python -m repro`` does.
Importing the CLI does not load numpy; simulating and solving do, so
the probe runs a sweep that has to do both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_PROBE = """
import json, os, runpy, sys

seen = {}


class RecordEnvOnNumpyImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({var: os.environ.get(var) for var in %r})
        return None


sys.meta_path.insert(0, RecordEnvOnNumpyImport())
sys.argv = ["repro", "sweep", "--workloads", "dijkstra",
            "--deadline-fracs", "0.5", "--no-cache", "--jobs", "1",
            "--quiet", "--output-dir", sys.argv[1]]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
print(json.dumps(seen))
""" % (PINS,)


def _env_at_numpy_import(tmp_path: Path, **overrides: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in PINS}
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(overrides)
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen, "numpy was never imported"
    return seen


def test_cli_pins_blas_to_one_thread_before_numpy_loads(tmp_path):
    seen = _env_at_numpy_import(tmp_path)
    assert seen == {var: "1" for var in PINS}


def test_callers_explicit_thread_count_wins(tmp_path):
    seen = _env_at_numpy_import(tmp_path, OPENBLAS_NUM_THREADS="2")
    assert seen["OPENBLAS_NUM_THREADS"] == "2"
    assert seen["OMP_NUM_THREADS"] == "1"
