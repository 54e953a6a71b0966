"""Anytime solving: budgets, fallback tiers, and the always-feasible
contract of ``DVSOptimizer.optimize(budget_s=...)``."""

import pytest

from repro import observe
from repro.core.scheduler import DVSOptimizer
from repro.errors import ScheduleError
from repro.resilience.anytime import TIER_CONTINUOUS, TIER_GREEDY
from repro.solver.solution import SolveStatus


class TestGenerousBudget:
    def test_matches_the_unbudgeted_optimum(self, optimizer, small_cfg,
                                            small_profile):
        deadline = small_profile.deadline_at(0.5)
        budgeted = optimizer.optimize(small_cfg, deadline,
                                      profile=small_profile, budget_s=60.0)
        exact = optimizer.optimize(small_cfg, deadline, profile=small_profile)
        assert budgeted.solution.ok
        assert not budgeted.degraded
        assert budgeted.fallback_tier.startswith("milp-")
        assert budgeted.optimality_gap == 0.0
        assert budgeted.predicted_energy_nj == pytest.approx(
            exact.predicted_energy_nj, rel=1e-9)

    def test_schedule_check_attached_and_passing(self, optimizer, small_cfg,
                                                 small_profile):
        deadline = small_profile.deadline_at(0.5)
        outcome = optimizer.optimize(small_cfg, deadline,
                                     profile=small_profile, budget_s=60.0)
        assert outcome.schedule_check is not None
        assert outcome.schedule_check.ok

    def test_tier_attempts_recorded(self, optimizer, small_cfg, small_profile):
        deadline = small_profile.deadline_at(0.5)
        outcome = optimizer.optimize(small_cfg, deadline,
                                     profile=small_profile, budget_s=60.0)
        assert outcome.tier_attempts
        assert outcome.tier_attempts[-1].accepted
        assert outcome.tier_attempts[-1].tier == outcome.fallback_tier

    def test_budgeted_native_solve_honours_solver_options(
            self, machine3, small_cfg, small_profile):
        deadline = small_profile.deadline_at(0.5)
        optimizer = DVSOptimizer(machine3, backend="native",
                                 solver_options={"continuous_prune": True})
        was_enabled = observe.enabled()
        observe.enable(reset=True)
        try:
            budgeted = optimizer.optimize(small_cfg, deadline,
                                          profile=small_profile, budget_s=60.0)
            incumbents = observe.counter_value("optimizer.continuous_incumbents")
        finally:
            observe.snapshot(reset=True)
            if not was_enabled:
                observe.disable()
        exact = optimizer.optimize(small_cfg, deadline, profile=small_profile)
        assert incumbents >= 1
        assert budgeted.fallback_tier == "milp-native"
        assert budgeted.predicted_energy_nj == exact.predicted_energy_nj


class TestStarvedBudget:
    def test_falls_back_to_continuous_but_stays_feasible(self, optimizer,
                                                         small_cfg,
                                                         small_profile):
        deadline = small_profile.deadline_at(0.5)
        # Below MIN_TIER_BUDGET_S: every MILP tier is skipped up front.
        # The continuous tier needs no search, so it absorbs the starved
        # budget before the greedy heuristic ever runs.
        outcome = optimizer.optimize(small_cfg, deadline,
                                     profile=small_profile, budget_s=1e-4)
        assert outcome.fallback_tier == TIER_CONTINUOUS
        assert outcome.degraded
        assert outcome.solution.status is SolveStatus.FEASIBLE
        # The fallback is still independently replay-checked ...
        assert outcome.schedule_check is not None
        assert outcome.schedule_check.ok
        # ... and meets the deadline it was asked for.
        assert outcome.predicted_time_s <= deadline * (1 + 1e-9)

    def test_starved_continuous_tier_is_the_continuous_backend(
            self, optimizer, machine3, small_cfg, small_profile):
        deadline = small_profile.deadline_at(0.5)
        starved = optimizer.optimize(small_cfg, deadline,
                                     profile=small_profile, budget_s=1e-4)
        backend = DVSOptimizer(machine3, backend="continuous").optimize(
            small_cfg, deadline, profile=small_profile)
        assert starved.fallback_tier == backend.fallback_tier == TIER_CONTINUOUS
        assert starved.schedule.assignment == backend.schedule.assignment
        assert starved.predicted_energy_nj == backend.predicted_energy_nj
        assert starved.optimality_gap == backend.optimality_gap

    def test_greedy_still_reachable_when_continuous_rejects(
            self, optimizer, small_cfg, small_profile, monkeypatch):
        from repro.core import continuous

        def refuse(*args, **kwargs):
            raise ScheduleError("forced reject for the greedy-tier test")

        monkeypatch.setattr(continuous, "continuous_bound", refuse)
        deadline = small_profile.deadline_at(0.5)
        outcome = optimizer.optimize(small_cfg, deadline,
                                     profile=small_profile, budget_s=1e-4)
        assert outcome.fallback_tier == TIER_GREEDY
        assert outcome.degraded
        assert outcome.schedule_check is not None
        assert outcome.schedule_check.ok
        assert outcome.predicted_time_s <= deadline * (1 + 1e-9)

    def test_skipped_tiers_explain_themselves(self, optimizer, small_cfg,
                                              small_profile):
        deadline = small_profile.deadline_at(0.5)
        outcome = optimizer.optimize(small_cfg, deadline,
                                     profile=small_profile, budget_s=1e-4)
        rejected = [a for a in outcome.tier_attempts if not a.accepted]
        assert rejected
        assert all("budget exhausted" in a.detail for a in rejected)

    def test_degraded_schedule_not_worse_than_greedy_alone(
            self, optimizer, small_cfg, small_profile):
        deadline = small_profile.deadline_at(0.5)
        outcome = optimizer.optimize(small_cfg, deadline,
                                     profile=small_profile, budget_s=1e-4)
        exact = optimizer.optimize(small_cfg, deadline, profile=small_profile)
        # A fallback can only cost energy, never gain it over the optimum.
        assert (outcome.predicted_energy_nj
                >= exact.predicted_energy_nj - 1e-6)


class TestContract:
    def test_non_positive_budget_rejected(self, optimizer, small_cfg,
                                          small_profile):
        deadline = small_profile.deadline_at(0.5)
        with pytest.raises(ScheduleError):
            optimizer.optimize(small_cfg, deadline, profile=small_profile,
                               budget_s=0.0)

    def test_truly_infeasible_deadline_still_raises(self, optimizer,
                                                    small_cfg, small_profile):
        # Half the all-fastest runtime is infeasible in every tier; the
        # anytime chain must say so rather than emit a deadline-missing
        # schedule.
        impossible = small_profile.deadline_at(0.0) * 0.5
        with pytest.raises(ScheduleError):
            optimizer.optimize(small_cfg, impossible, profile=small_profile,
                               budget_s=5.0)

    def test_unbudgeted_path_reports_exact_tier(self, optimizer, small_cfg,
                                                small_profile):
        deadline = small_profile.deadline_at(0.5)
        outcome = optimizer.optimize(small_cfg, deadline, profile=small_profile)
        assert outcome.fallback_tier.startswith("milp-")
        assert outcome.optimality_gap == 0.0
        assert not outcome.degraded
        # The exact solve is the one-tier ladder: replay-checked, and
        # one accepted attempt.
        assert outcome.schedule_check is not None
        assert outcome.schedule_check.ok
        assert len(outcome.tier_attempts) == 1
        assert outcome.tier_attempts[0].accepted
        assert outcome.tier_attempts[0].tier == outcome.fallback_tier
