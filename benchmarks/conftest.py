"""Shared infrastructure for the reproduction benchmarks.

Each ``test_tabN_*``/``test_figNN_*`` module regenerates one table or
figure from the paper's evaluation.  Expensive artifacts — per-workload,
per-mode-table simulation profiles — are built once per session and
shared across experiments through the caches below, and additionally
persisted in the :mod:`repro.runtime` content-addressed artifact store
(``benchmarks/.artifact-cache`` by default, ``$REPRO_CACHE_DIR`` when
set), so *repeated* benchmark runs skip re-simulation entirely.  Keys
hash the workload source, inputs and machine configuration, so editing
a kernel or the simulator config invalidates exactly the stale entries;
``REPRO_BENCH_CACHE=off`` (or deleting the directory) forces a fresh
build.  Every experiment writes its regenerated table/series to
``benchmarks/results/<name>.txt`` so the output survives pytest's
capture.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core import DVSOptimizer
from repro.core.analytical import ProgramParams
from repro.profiling.profile_data import ProfileData
from repro.profiling.serialize import profile_from_dict, profile_to_dict
from repro.runtime import hashing
from repro.runtime.cache import ArtifactStore, CACHE_DIR_ENV
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.simulator.dvs import ModeTable, make_mode_table
from repro.workloads import compile_workload, derive_deadlines, get_workload

RESULTS_DIR = Path(__file__).parent / "results"


def _artifact_store() -> ArtifactStore | None:
    """The persistent cross-session store, unless disabled."""
    if os.environ.get("REPRO_BENCH_CACHE", "").lower() in ("off", "0", "no"):
        return None
    root = os.environ.get(CACHE_DIR_ENV) or Path(__file__).parent / ".artifact-cache"
    return ArtifactStore(root)

#: The four benchmarks of the paper's Tables 1/6/7.
TABLE_BENCHMARKS = ("adpcm", "epic", "gsm", "mpeg")
#: The six benchmarks of the paper's Tables 3/4/5, Figures 14/15/17/18.
ALL_BENCHMARKS = ("adpcm", "epic", "gsm", "mpeg", "mpg123", "ghostscript")


def write_artifact(name: str, text: str) -> Path:
    """Persist a regenerated table/series and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


@dataclass
class WorkloadContext:
    """Everything an experiment needs about one workload on one machine."""

    name: str
    spec: object
    cfg: object
    machine: Machine
    optimizer: DVSOptimizer
    profile: ProfileData
    params: ProgramParams
    deadlines: list[float]  # D1 (stringent) .. D5 (lax), Table 4 style

    def inputs(self, **kwargs):
        return self.spec.inputs(**kwargs)

    def registers(self):
        return self.spec.registers()


class _ContextCache:
    """Session cache of (workload, mode-table) contexts."""

    def __init__(self) -> None:
        self._cache: dict[tuple[str, str], WorkloadContext] = {}
        self._xscale_deadlines: dict[str, list[float]] = {}
        self._store = _artifact_store()

    def _profile_for(self, spec, cfg, machine: Machine) -> ProfileData:
        """Per-mode profile, served from the persistent store when warm."""
        optimizer = DVSOptimizer(machine)
        if self._store is None:
            return optimizer.profile(cfg, inputs=spec.inputs(),
                                     registers=spec.registers())
        key = hashing.profile_key(spec.source, spec.categories[0], 0, machine)
        payload = self._store.get(key)
        if payload is not None:
            return profile_from_dict(payload["profile"])
        profile = optimizer.profile(cfg, inputs=spec.inputs(),
                                    registers=spec.registers())
        self._store.put(key, {"profile": profile_to_dict(profile)})
        return profile

    def get(self, name: str, table: ModeTable) -> WorkloadContext:
        key = (name, table.name)
        if key in self._cache:
            return self._cache[key]
        spec = get_workload(name)
        cfg = compile_workload(name)
        machine = Machine(SCALE_CONFIG, table, TransitionCostModel())
        optimizer = DVSOptimizer(machine)
        profile = self._profile_for(spec, cfg, machine)
        if table.name == XSCALE_3.name and name not in self._xscale_deadlines:
            times = profile.wall_time_s
            self._xscale_deadlines[name] = derive_deadlines(times[0], times[1], times[2])
        deadlines = self._deadlines_for(name)
        context = WorkloadContext(
            name=name, spec=spec, cfg=cfg, machine=machine, optimizer=optimizer,
            profile=profile, params=profile.params, deadlines=deadlines,
        )
        self._cache[key] = context
        return context

    def _deadlines_for(self, name: str) -> list[float]:
        """Deadlines always derive from the XScale 3-mode runtimes (the
        paper's Table 4), shared by every mode-table study."""
        if name not in self._xscale_deadlines:
            times = self.get(name, XSCALE_3).profile.wall_time_s
            self._xscale_deadlines[name] = derive_deadlines(times[0], times[1], times[2])
        return self._xscale_deadlines[name]


_CACHE = _ContextCache()


@pytest.fixture(scope="session")
def context_cache() -> _ContextCache:
    return _CACHE


@pytest.fixture(scope="session")
def xscale_table() -> ModeTable:
    return XSCALE_3


@pytest.fixture(scope="session")
def level_tables() -> dict[int, ModeTable]:
    """The 3/7/13-level alpha-power tables of the Tables 1/6 study."""
    return {levels: make_mode_table(levels) for levels in (3, 7, 13)}


def single_run(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark's timer.

    These experiments are end-to-end (minutes of simulation across the
    session); statistical repetition would be waste.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(scope="session", autouse=True)
def observe_overhead_budget():
    """Gate on the disabled observability fast path before any benchmark.

    Every instrumented hot loop (simplex pivots, the simulator) pays one
    flag test per :mod:`repro.observe` call when tracing is off; if that
    path grows a lock, an allocation, or an import, every number this
    suite produces quietly inflates.  Budget: well under the cost of the
    work the calls annotate.
    """
    from repro import observe

    assert not observe.enabled(), "benchmarks must start with tracing off"
    rounds = 20_000

    def loop():
        for _ in range(rounds):
            observe.add("overhead.probe")

    best = min(_timed(loop) for _ in range(5))
    per_call = best / rounds
    assert per_call < 2e-6, (
        f"disabled observe.add() costs {per_call * 1e9:.0f} ns/call; "
        "the no-op fast path has regressed"
    )
    yield


def _timed(fn) -> float:
    from repro import observe

    t0 = observe.clock()
    fn()
    return observe.clock() - t0
