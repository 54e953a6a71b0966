"""Warm-started sweeps must be a pure optimization, never an observable.

`repro sweep --solver-backend native` chains the optimal basis and
branching pseudocosts from each deadline to the next through the
per-process warm-start registry.  The contract under test: warm-started
results are byte-identical to cold ones — across backends (native vs
HiGHS), across schedulers (jobs=1 vs jobs=4), across cache hits that
skip intermediate deadlines in the chain, and across a SIGKILL followed
by ``--resume``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import observe
from repro.runtime.dag import StreamGrid
from repro.runtime.sweep import SweepConfig, run_sweep

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

WORKLOADS = ("dijkstra",)
FRACS = (0.35, 0.55, 0.75)


def _sweep(out_dir, backend="native", jobs=1, fracs=FRACS,
                  cache_dir=None):
    config = SweepConfig(
        StreamGrid(workloads=WORKLOADS, deadline_fracs=fracs),
        jobs=jobs,
        solver_backend=backend,
        cache_dir=cache_dir,
        output_dir=str(out_dir),
    )
    report = run_sweep(config)
    assert report.ok, report.failures
    return report


class TestEngineByteIdentity:
    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("engines")
        return {
            "revised": _sweep(base / "revised"),
            "highs": _sweep(base / "highs", backend="scipy"),
            "revised-par": _sweep(base / "revised-par", jobs=4),
        }

    def test_revised_matches_dense_byte_for_byte(self, reports):
        # The warm-started native solver and HiGHS must emit the same
        # results.jsonl bytes: every schedule is priced from its integer
        # assignment alone, whatever backend or pivot path reached it.
        assert (reports["revised"].results_path.read_bytes()
                == reports["highs"].results_path.read_bytes())

    def test_parallel_matches_sequential(self, reports):
        # jobs=4 splits the chain across workers, so some deadlines
        # warm-start and some solve cold — the bytes must not care.
        assert (reports["revised"].results_path.read_bytes()
                == reports["revised-par"].results_path.read_bytes())


class TestWarmChainEngagement:
    def test_sequential_sweep_actually_warm_starts(self, tmp_path):
        # Guard against the registry silently disengaging (key drift,
        # reset misplacement): the chain must report warm solves.
        observe.enable(reset=True)
        try:
            _sweep(tmp_path / "out")
            warm = observe.counter_value("solver.revised.warm_solves")
            total = observe.counter_value("solver.revised.solves")
        finally:
            observe.disable()
        assert warm > 0
        assert total > warm

    def test_warm_chain_matches_isolated_deadlines(self, tmp_path):
        # Three single-deadline sweeps share no registry state between
        # deadlines — the all-cold baseline for the chained run.
        chained = _sweep(tmp_path / "chain")
        chained_records = chained.results_path.read_text().splitlines()
        isolated_records = []
        for frac in FRACS:
            report = _sweep(tmp_path / f"iso-{frac}", fracs=(frac,))
            isolated_records.extend(report.results_path.read_text().splitlines())
        assert sorted(chained_records) == sorted(isolated_records)


class TestCacheHitSkipsIntermediateDeadline:
    def test_partial_cache_chain_matches_cold(self, tmp_path):
        # Pre-warm the cache with ONLY the middle deadline.  The full
        # sweep then cache-hits D2, so the warm chain hands the D1 basis
        # straight to D3 — a different pivot path than the cold run's,
        # which must still produce the same bytes.
        cache = str(tmp_path / "cache")
        _sweep(tmp_path / "prewarm", fracs=(FRACS[1],),
                      cache_dir=cache)
        partial = _sweep(tmp_path / "partial", cache_dir=cache)
        cached_tasks = [r for r in partial.results.values()
                        if r.cache == "hit"]
        assert cached_tasks, "the pre-warmed middle deadline never hit"
        cold = _sweep(tmp_path / "cold")
        assert (partial.results_path.read_bytes()
                == cold.results_path.read_bytes())


def _sweep_cmd(out, *extra):
    return [
        sys.executable, "-m", "repro", "sweep",
        "--workloads", ",".join(WORKLOADS),
        "--deadline-fracs", ",".join(str(f) for f in FRACS),
        "--jobs", "1", "--quiet", "--no-cache",
        "--solver-backend", "native",
        "--output-dir", str(out),
        *extra,
    ]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestCrashResumeWarmChain:
    def test_sigkill_resume_matches_uninterrupted(self, tmp_path):
        # A killed sweep loses the in-memory warm-start registry; the
        # resumed process rebuilds the chain from whatever tasks remain.
        # Journal replay + canonical solves make that invisible.
        import time

        out = tmp_path / "out"
        journal = out / "journal.jsonl"
        proc = subprocess.Popen(_sweep_cmd(out), env=_env(),
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                if (journal.exists()
                        and len(journal.read_text().splitlines()) >= 3):
                    break
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait(timeout=60)

        resumed = subprocess.run(_sweep_cmd(out, "--resume"), env=_env(),
                                 capture_output=True, text=True, timeout=600)
        assert resumed.returncode == 0, resumed.stderr

        reference = subprocess.run(_sweep_cmd(tmp_path / "ref"), env=_env(),
                                   capture_output=True, text=True, timeout=600)
        assert reference.returncode == 0, reference.stderr
        assert ((out / "results.jsonl").read_bytes()
                == (tmp_path / "ref" / "results.jsonl").read_bytes())


class TestBlasThreadIndependence:
    def test_pivot_path_is_the_same_at_one_and_two_blas_threads(
            self, tmp_path):
        # The simplex's pivot choices depend on the last bits of its
        # FTRAN/BTRAN results.  A dense inverse applied by threaded BLAS
        # rounded differently per thread count (dijkstra@0.35 took 1725
        # pivots on one OpenBLAS thread and 349 on two); the sparse LU
        # factor's solves do not, so rows *and* the pivot count must
        # agree.
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            cmd = _sweep_cmd(out, "--trace")
            cmd[cmd.index("--deadline-fracs") + 1] = "0.35"
            env = _env()
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(cmd, env=env, capture_output=True,
                                  text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            counters = observe.read_metrics(out / "metrics.json")["counters"]
            runs[threads] = ((out / "results.jsonl").read_bytes(),
                             counters["solver.revised.pivots"])
        assert runs["1"][1] > 0
        assert runs["1"] == runs["2"]
