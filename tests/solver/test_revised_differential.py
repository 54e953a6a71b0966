"""Differential gate for the native revised simplex against HiGHS.

The revised engine (``repro.solver.revised``) is the only native LP core;
scipy's HiGHS is the independent reference it must agree with: same
status, same objective, and — because the optimizer prices every
schedule from its integer assignment alone — the same serialized
schedule and the same canonical price bits.

This module checks that contract three ways:

* the paper's Figure 17/18 deadline grid on the shared small fixture
  program, native (cold and warm) vs HiGHS, with certificate
  verification on every solution;
* a warm-started deadline chain (what ``repro sweep`` runs) against the
  same chain solved cold;
* a 300-case seeded fuzz over the pathological LP generator profiles
  (degenerate, near-singular, rank-deficient, wide-range, boxed MILP).

The full real-workload grid (adpcm/gsm) is gated behind
``REPRO_FULL_DIFFERENTIAL=1`` + the ``slow`` marker: the native solves at
the stringent deadlines take minutes, so the always-on gate uses the
small fixture instead.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import DVSOptimizer
from repro.lang import compile_program
from repro.profiling.serialize import schedule_to_dict
from repro.solver import warmstart
from repro.verify.certificate import verify_certificate
from repro.verify.fuzz import fuzz_lps
from repro.verify.generators import generate_program
from repro.workloads import derive_deadlines


def _schedule_bytes(formulation, solution) -> bytes:
    """The canonical serialized form of a solution's schedule."""
    schedule = formulation.extract_schedule(solution)
    return json.dumps(schedule_to_dict(schedule), sort_keys=True).encode()


def _price(formulation, solution) -> tuple[float, float]:
    """The canonical (energy, time) price of a solution's schedule."""
    return formulation.price(formulation.extract_schedule(solution))


@pytest.fixture(scope="module")
def deadline_grid(small_profile):
    """The paper's five Table-4 deadlines for the small fixture."""
    times = small_profile.wall_time_s
    return derive_deadlines(times[0], times[1], times[2])


@pytest.fixture(scope="module")
def solved_grid(optimizer, small_profile, deadline_grid):
    """Every deadline solved natively (cold and warm-started from the
    previous deadline) and by HiGHS, on one formulation."""
    rows = []
    warmstart.reset()
    try:
        for deadline in deadline_grid:
            formulation, _ = optimizer.build(small_profile, deadline, None)
            revised = formulation.solve(backend="native")
            warm = formulation.solve(backend="native", warm_key="diff.grid")
            scipy_sol = formulation.solve(backend="scipy")
            rows.append((deadline, formulation, revised, warm, scipy_sol))
    finally:
        warmstart.reset()
    return rows


class TestDeadlineGridDifferential:
    """Native cold vs native warm vs HiGHS across the Figure 17/18 grid."""

    def test_all_three_solvers_prove_optimality(self, solved_grid):
        for deadline, _f, revised, warm, scipy_sol in solved_grid:
            assert revised.ok, f"revised failed at deadline {deadline}"
            assert warm.ok, f"warm revised failed at deadline {deadline}"
            assert scipy_sol.ok, f"scipy failed at deadline {deadline}"

    def test_objectives_agree(self, solved_grid):
        for deadline, _f, revised, warm, scipy_sol in solved_grid:
            scale = 1.0 + abs(scipy_sol.objective)
            assert abs(revised.objective - warm.objective) <= 1e-6 * scale
            assert abs(revised.objective - scipy_sol.objective) <= 1e-6 * scale

    def test_native_solutions_bit_identical(self, solved_grid):
        # The canonical price depends on the integer assignment alone, so
        # native and HiGHS must emit the *same bits*, not merely equal
        # objectives, whatever their solution vectors' last bits say.
        for deadline, formulation, revised, warm, scipy_sol in solved_grid:
            highs = _price(formulation, scipy_sol)
            assert _price(formulation, revised) == highs, (
                f"native and HiGHS prices differ at deadline {deadline}")
            assert _price(formulation, warm) == highs

    def test_serialized_schedules_byte_identical(self, solved_grid):
        for deadline, formulation, revised, warm, scipy_sol in solved_grid:
            highs = _schedule_bytes(formulation, scipy_sol)
            assert _schedule_bytes(formulation, revised) == highs
            assert _schedule_bytes(formulation, warm) == highs

    def test_certificates_valid_for_every_solver(self, solved_grid):
        for _d, formulation, revised, warm, scipy_sol in solved_grid:
            for solution in (revised, warm, scipy_sol):
                verify_certificate(formulation, solution).raise_if_invalid()


class TestWarmChainDifferential:
    """A warm-started deadline chain must match the cold chain exactly."""

    def test_warm_chain_byte_identical_to_cold(
            self, machine3, small_cfg, small_profile, deadline_grid):
        warm_opt = DVSOptimizer(machine3, backend="native",
                                solver_options={"warm_key": "diff.small"})
        cold_opt = DVSOptimizer(machine3, backend="native")
        warmstart.reset()
        try:
            warm = [json.dumps(schedule_to_dict(
                        warm_opt.optimize(small_cfg, d,
                                          profile=small_profile).schedule),
                        sort_keys=True)
                    for d in deadline_grid]
            cold = [json.dumps(schedule_to_dict(
                        cold_opt.optimize(small_cfg, d,
                                          profile=small_profile).schedule),
                        sort_keys=True)
                    for d in deadline_grid]
        finally:
            warmstart.reset()
        assert warm == cold

    def test_warm_chain_reuses_bases(self, machine3, small_cfg,
                                     small_profile, deadline_grid):
        from repro import observe

        warm_opt = DVSOptimizer(machine3, backend="native",
                                solver_options={"warm_key": "diff.reuse"})
        warmstart.reset()
        observe.enable(reset=True)
        try:
            for d in deadline_grid:
                warm_opt.optimize(small_cfg, d, profile=small_profile)
            warm_pivots = observe.counter_value("solver.revised.warm_pivots")
        finally:
            observe.disable()
            warmstart.reset()
        assert warm_pivots > 0, "the chain never dual-warm-started"


class TestBranchAndBoundWarmStarts:
    """Every node of a real branch and bound warm-starts from its
    parent's basis and keeps it: no node falls back to a cold solve."""

    def test_adpcm_tight_deadline_abandons_no_warm_start(self):
        from repro.perf.harness import measured_solve, profiled_workload

        cfg, machine, profile = profiled_workload("adpcm")
        optimizer = DVSOptimizer(machine, backend="native")
        _, _, counters = measured_solve(optimizer, cfg,
                                        profile.deadline_at(0.2), profile)
        abandoned = {k: v for k, v in counters.items()
                     if k.startswith("solver.revised.warm_abandoned.")}
        assert abandoned == {}
        # Only the root relaxation solves cold.
        assert counters["solver.lp_solves"] > 1
        assert (counters["solver.revised.warm_solves"]
                == counters["solver.lp_solves"] - 1)


class TestGeneratedProgramDifferential:
    """Native and HiGHS must agree on programs neither was tuned against."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_program_engines_agree(self, machine3, seed):
        program = generate_program(seed)
        cfg = compile_program(program.source, name=f"diff-gen-{seed}")
        opt = DVSOptimizer(machine3, backend="native")
        profile = opt.profile(cfg, inputs=program.inputs)
        times = profile.wall_time_s
        # The middle (D3-like) deadline: tight enough to force a real
        # mode mix, lax enough that both engines finish instantly.
        deadline = derive_deadlines(times[0], times[1], times[2])[2]
        formulation, _ = opt.build(profile, deadline, None)
        revised = formulation.solve(backend="native")
        highs = formulation.solve(backend="scipy")
        assert revised.status == highs.status
        if revised.ok:
            assert _price(formulation, revised) == _price(formulation, highs)
            verify_certificate(formulation, revised).raise_if_invalid()


class TestTortureFuzz:
    """The seeded pathological-LP differential (repro fuzz --lp-runs)."""

    def test_fuzz_300_cases_all_agree(self):
        # 300 instances cycle through all six generator profiles with
        # seeds 0..299 — the exact campaign `repro fuzz --lp-runs 300`
        # runs, so any failure here reproduces from the CLI by index.
        report = fuzz_lps(300, seed=0)
        assert report.ok, "\n".join(map(str, report.failures))
        assert report.runs == 300


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("REPRO_FULL_DIFFERENTIAL"),
                    reason="set REPRO_FULL_DIFFERENTIAL=1 to run the "
                           "real-workload grid (minutes of solver time)")
class TestFullWorkloadGrid:
    """adpcm/gsm × the full deadline grid, native vs HiGHS, byte for byte:
    the same schedule and the same canonical price bits — what
    `repro bench --solver` checks."""

    @pytest.mark.parametrize("name", ["adpcm", "gsm"])
    def test_workload_grid(self, name, machine3):
        from repro.workloads import get_workload

        spec = get_workload(name)
        cfg = compile_program(spec.source, name=name)
        opt = DVSOptimizer(machine3, backend="native")
        highs_opt = DVSOptimizer(machine3, backend="scipy")
        profile = opt.profile(cfg, inputs=spec.inputs(),
                              registers=spec.registers())
        times = profile.wall_time_s
        for deadline in derive_deadlines(times[0], times[1], times[2]):
            native = opt.optimize(cfg, deadline, profile=profile)
            highs = highs_opt.optimize(cfg, deadline, profile=profile)
            assert (json.dumps(schedule_to_dict(native.schedule), sort_keys=True)
                    == json.dumps(schedule_to_dict(highs.schedule), sort_keys=True))
            assert native.predicted_energy_nj == highs.predicted_energy_nj
