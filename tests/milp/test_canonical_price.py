"""Canonical pricing: a schedule's predicted energy and time depend on its
mode assignment alone, never on the backend or pivot path that found it."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core import DVSOptimizer
from repro.core.milp import CategoryProfile
from repro.core.milp.formulation import exact_value
from repro.solver.model import LinExpr, Model
from repro.verify import oracles


@pytest.fixture(scope="module")
def small_outcome(optimizer, small_cfg, small_profile):
    wall = small_profile.wall_time_s
    deadline = wall[2] + 0.4 * (wall[0] - wall[2])
    return optimizer.optimize(small_cfg, deadline, profile=small_profile)


class TestPrice:
    def test_price_is_a_plain_float_of_the_assignment(self, small_outcome):
        formulation = small_outcome.formulation
        schedule = formulation.extract_schedule(small_outcome.solution)
        energy, time_s = formulation.price(schedule)
        assert type(energy) is float and type(time_s) is float
        assert (energy, time_s) == (small_outcome.predicted_energy_nj,
                                    small_outcome.predicted_time_s)

    def test_exact_value_ignores_build_order(self):
        model = Model("order")
        xs = [model.add_var(f"x{i}") for i in range(3)]
        terms = [(xs[0], 1.0), (xs[1], 1e16), (xs[2], -1e16)]
        forward, backward = LinExpr(), LinExpr()
        for var, coef in terms:
            forward.add_term(var, coef)
        for var, coef in reversed(terms):
            backward.add_term(var, coef)
        point = [1.0, 1.0, 1.0]
        assert exact_value(forward, point) == exact_value(backward, point) == 1.0
        # Naive left-to-right summation loses the 1.0 in one order.
        assert forward.value(point) != backward.value(point)

    def test_optimize_multi_is_priced_canonically(
            self, optimizer, small_cfg, small_profile):
        wall = small_profile.wall_time_s
        deadline = wall[2] + 0.5 * (wall[0] - wall[2])
        outcome = optimizer.optimize_multi(
            small_cfg, [CategoryProfile(small_profile, 1.0, deadline)])
        formulation = outcome.formulation
        assert formulation.aux_paths, "transition auxiliaries not recorded"
        schedule = formulation.extract_schedule(outcome.solution)
        assert formulation.price(schedule) == (outcome.predicted_energy_nj,
                                               outcome.predicted_time_s)
        assert math.isclose(outcome.predicted_energy_nj,
                            outcome.solution.objective, rel_tol=1e-6)


class TestOracles:
    def test_both_pass_on_a_real_outcome(self, optimizer, small_outcome):
        assert oracles.canonical_price_matches_solver(small_outcome).ok
        assert oracles.canonical_price_matches_replay(
            optimizer, small_outcome).ok

    def test_unfiltered_outcome_matches_replay(self, small_cfg, small_profile,
                                               machine3):
        unfiltered = DVSOptimizer(machine3, filter_threshold=0.0)
        wall = small_profile.wall_time_s
        outcome = unfiltered.optimize(
            small_cfg, wall[2] + 0.3 * (wall[0] - wall[2]),
            profile=small_profile)
        assert outcome.filter_result.num_independent == len(
            small_profile.edge_counts)
        assert oracles.canonical_price_matches_replay(unfiltered, outcome).ok

    @pytest.mark.parametrize("factor", [1 + 1e-4, 1 - 1e-4])
    def test_solver_oracle_fails_on_either_side(self, small_outcome, factor):
        skewed = dataclasses.replace(
            small_outcome,
            predicted_energy_nj=small_outcome.predicted_energy_nj * factor)
        assert not oracles.canonical_price_matches_solver(skewed).ok

    @pytest.mark.parametrize("field", ["predicted_energy_nj",
                                       "predicted_time_s"])
    @pytest.mark.parametrize("factor", [1 + 1e-4, 1 - 1e-4])
    def test_replay_oracle_fails_on_either_side(self, optimizer,
                                                small_outcome, field, factor):
        skewed = dataclasses.replace(
            small_outcome, **{field: getattr(small_outcome, field) * factor})
        assert not oracles.canonical_price_matches_replay(optimizer, skewed).ok
