"""Import discipline: a warm request loads only what it reads.

Importing numpy and ``scipy.optimize`` costs a fresh process far more
than answering a fully cached ``repro sweep`` does, and the package's
own compiler, simulator and scheduler cost it about half again.  Only
tasks that simulate or solve import them (see ``docs/performance.md``);
these tests run real ``python -m repro`` processes and look at
``sys.modules``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "scipy")
#: What a warm sweep reads nothing of: the compiler, the scheduler, the
#: simulator and profiler, and the package metadata behind ``--version``.
WARM_UNUSED = ("repro.lang", "repro.core.scheduler", "repro.simulator.machine",
               "repro.profiling.profiler", "importlib.metadata")

#: Runs ``python -m repro ARGV`` in-process, then reports its exit code
#: and which of the watched modules (JSON argument 2) got loaded.
_PROBE = """
import json, runpy, sys
watched = json.loads(sys.argv[2])
sys.argv = ["repro"] + json.loads(sys.argv[1])
code = 0
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code,
                  "loaded": [m for m in watched if m in sys.modules]}))
"""


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _python(*args: str) -> str:
    proc = subprocess.run([sys.executable, *args], env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def _repro(argv: list[str], watched: tuple[str, ...] = HEAVY) -> dict:
    out = _python("-c", _PROBE, json.dumps(argv), json.dumps(watched))
    return json.loads(out.strip().splitlines()[-1])


def _sweep(cache: Path, out: Path, jobs: int = 1) -> list[str]:
    return ["sweep", "--workloads", "dijkstra", "--deadline-fracs", "0.5",
            "--jobs", str(jobs), "--quiet", "--cache-dir", str(cache),
            "--output-dir", str(out)]


def test_importing_the_cli_loads_neither_numpy_nor_scipy():
    out = _python("-c", "import sys, repro.cli; "
                        f"print([m for m in {HEAVY!r} if m in sys.modules])")
    assert out.strip() == "[]"


def test_sweep_and_serve_import_no_bench_module():
    """Bench, loadtest and server-spawning code stays off both paths."""
    probe = ("import sys, repro.cli, repro.runtime.sweep, repro.serve.server; "
             "print(sorted(m for m in sys.modules if m.startswith(("
             "'repro.perf.bench', 'repro.perf.harness', "
             "'repro.perf.loadtest', 'repro.serve.spawn'))))")
    assert _python("-c", probe).strip() == "[]"


def test_the_fast_path_engine_loads_no_runtime_module():
    """The simulator's fast path shares only the leaf LRU with the sweep
    runtime; loading the engine must not pull in the orchestration."""
    probe = ("import sys, repro.perf.engine; "
             "print(sorted(m for m in sys.modules "
             "if m == 'repro.runtime' or m.startswith('repro.runtime.')))")
    assert _python("-c", probe).strip() == "[]"


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A cold dijkstra x 0.5 sweep: its cache and its results.jsonl."""
    tmp = tmp_path_factory.mktemp("imports")
    cold = _repro(_sweep(tmp / "cache", tmp / "cold"))
    assert cold["code"] == 0
    # Simulating and solving do load both: the probe sees imports.
    assert cold["loaded"] == list(HEAVY)
    return tmp


def test_warm_sweep_loads_neither_and_writes_the_cold_bytes(filled):
    warm = _repro(_sweep(filled / "cache", filled / "warm"))
    assert warm == {"code": 0, "loaded": []}
    assert ((filled / "warm" / "results.jsonl").read_bytes()
            == (filled / "cold" / "results.jsonl").read_bytes())


@pytest.mark.parametrize("jobs", [1, 2])
def test_warm_sweep_loads_no_compiler_simulator_or_scheduler(filled, jobs):
    """Every task but ``verify`` is a cache hit and ``verify`` reads its
    inputs, so nothing that compiles, simulates or solves is imported;
    inline (``--jobs 1``) the pool machinery is not either."""
    watched = WARM_UNUSED + (("multiprocessing",) if jobs == 1 else ())
    out = filled / f"warm-jobs{jobs}"
    warm = _repro(_sweep(filled / "cache", out, jobs), watched)
    assert warm == {"code": 0, "loaded": []}
    assert ((out / "results.jsonl").read_bytes()
            == (filled / "cold" / "results.jsonl").read_bytes())


def test_warm_sweep_loads_neither_the_server_nor_the_taskgraph_family(filled):
    warm = _repro(_sweep(filled / "cache", filled / "warm-families"),
                  ("repro.serve", "repro.taskgraph"))
    assert warm == {"code": 0, "loaded": []}


def test_a_single_stream_request_loads_no_taskgraph_module():
    probe = ("import sys; from repro.runtime.dag import build_task_graph; "
             "from repro.serve.protocol import parse_request; "
             "parsed = parse_request({'workloads': ['adpcm', 'gsm'], "
             "'deadline_fracs': [0.35, 0.7], 'levels': ['xscale', 7]}); "
             "build_task_graph(list(parsed.experiments)); "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('repro.taskgraph')))")
    assert _python("-c", probe).strip() == "[]"


def test_budgeted_solve_does_not_spend_its_budget_on_imports():
    """The backends' scipy import (about half a second) is loaded before
    the anytime budget starts, so a small solve finishes well inside a
    budget shorter than that import, at the proven-optimal tier."""
    budget = 0.25
    out = _python("-m", "repro", "optimize", "dijkstra", "--deadline-frac",
                  "0.5", "--solver-budget", str(budget))
    line = re.search(r"solver tier (\S+), optimality gap (\S+), "
                     r"solved in ([0-9.]+)s", out)
    assert line is not None, out
    tier, gap, seconds = line.group(1), line.group(2), float(line.group(3))
    assert (tier, gap) == ("milp-scipy", "0.0%")
    assert seconds < budget
