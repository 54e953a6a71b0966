"""End-to-end DVSOptimizer pipeline tests: the MILP's predictions must be
realized exactly by the simulator (closed-loop verification)."""

import pytest

from repro.errors import ProfileError, ScheduleError
from repro.core import DVSOptimizer


@pytest.fixture(scope="module")
def deadlines(small_profile):
    t_fast = small_profile.wall_time_s[2]
    t_mid = small_profile.wall_time_s[1]
    t_slow = small_profile.wall_time_s[0]
    return {
        "tight": t_fast * 1.02,
        "mid": t_fast + 0.5 * (t_slow - t_fast),
        "near_mid_mode": t_mid * 1.05,
        "lax": t_slow * 1.05,
    }


class TestPipeline:
    def test_prediction_matches_simulation_exactly(
        self, optimizer, small_cfg, small_profile, small_inputs, small_registers, deadlines
    ):
        """The headline closed-loop property: profile-driven MILP
        predictions (energy AND time) are exactly what the machine
        measures when running the schedule."""
        for name, deadline in deadlines.items():
            outcome = optimizer.optimize(small_cfg, deadline, profile=small_profile)
            run = optimizer.verify(
                small_cfg, outcome.schedule,
                inputs=small_inputs, registers=small_registers,
            )
            assert run.wall_time_s == pytest.approx(outcome.predicted_time_s, rel=1e-9), name
            assert run.cpu_energy_nj == pytest.approx(outcome.predicted_energy_nj, rel=1e-9), name
            assert run.wall_time_s <= deadline * (1 + 1e-9), name

    def test_beats_or_matches_single_mode_baseline(
        self, optimizer, small_cfg, small_profile, deadlines
    ):
        for name, deadline in deadlines.items():
            outcome = optimizer.optimize(small_cfg, deadline, profile=small_profile)
            try:
                _, baseline_energy = optimizer.best_single_mode(small_profile, deadline)
            except ScheduleError:
                continue  # no single mode meets this deadline; MILP still might
            assert outcome.predicted_energy_nj <= baseline_energy * (1 + 1e-9), name

    def test_energy_monotone_in_deadline(self, optimizer, small_cfg, small_profile, deadlines):
        """Laxer deadlines can only reduce optimal energy."""
        ordered = sorted(deadlines.values())
        energies = [
            optimizer.optimize(small_cfg, d, profile=small_profile).predicted_energy_nj
            for d in ordered
        ]
        for earlier, later in zip(energies, energies[1:]):
            assert later <= earlier * (1 + 1e-9)

    def test_infeasible_deadline_raises(self, optimizer, small_cfg, small_profile):
        with pytest.raises(ScheduleError):
            optimizer.optimize(
                small_cfg, small_profile.wall_time_s[2] * 0.5, profile=small_profile
            )

    def test_outcome_metadata(self, optimizer, small_cfg, small_profile, deadlines):
        outcome = optimizer.optimize(small_cfg, deadlines["mid"], profile=small_profile)
        assert outcome.solve_time_s > 0
        assert outcome.num_independent_edges > 0
        assert outcome.filter_result is not None
        assert outcome.profile is small_profile

    def test_best_single_mode_infeasible_raises(self, optimizer, small_profile):
        with pytest.raises(ScheduleError):
            optimizer.best_single_mode(small_profile, small_profile.wall_time_s[2] * 0.5)

    def test_mid_deadline_uses_multiple_modes(self, optimizer, small_cfg, small_profile, deadlines):
        """A deadline between the all-fast and all-slow runtimes should
        exploit intra-program DVS (the mixed program has distinct
        memory-bound and compute-bound phases)."""
        outcome = optimizer.optimize(small_cfg, deadlines["mid"], profile=small_profile)
        assert len(outcome.schedule.modes_used()) >= 2


class TestParetoCurve:
    def test_curve_monotone_and_bounded(self, optimizer, small_cfg, small_profile):
        curve = optimizer.energy_deadline_curve(
            small_cfg, small_profile, fractions=[0.1, 0.4, 0.7, 1.0]
        )
        deadlines = [d for d, _ in curve]
        energies = [e for _, e in curve]
        assert deadlines == sorted(deadlines)
        for tight, lax in zip(energies, energies[1:]):
            assert lax <= tight * (1 + 1e-9)
        # Endpoints bracket the single-mode extremes.
        assert energies[0] <= small_profile.cpu_energy_nj[2] * (1 + 1e-9)
        assert energies[-1] >= small_profile.cpu_energy_nj[0] * (1 - 1e-9)

    def test_default_fraction_grid(self, optimizer, small_cfg, small_profile):
        curve = optimizer.energy_deadline_curve(small_cfg, small_profile)
        assert len(curve) == 11

    def test_single_mode_profile_has_no_curve(self, optimizer, small_cfg,
                                              small_profile):
        """One mode has no fast->slow range: the curve refuses instead of
        solving eleven copies of the zero-slack deadline."""
        import dataclasses

        one_mode = dataclasses.replace(
            small_profile, num_modes=1,
            wall_time_s={0: small_profile.wall_time_s[0]})
        with pytest.raises(ProfileError, match="1 mode"):
            optimizer.energy_deadline_curve(small_cfg, one_mode)
