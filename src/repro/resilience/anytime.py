"""The tier ladder: the one path from a formulation to a checked schedule.

:func:`optimize_anytime` runs every solve of the Section 4.2 MILP, exact
or budgeted.  Under a wall-clock budget it degrades through a fallback
chain instead of raising:

1. **HiGHS** (``scipy``) with the remaining budget as its time limit —
   the normal fast path; a proven optimum when it finishes, a checked
   incumbent when it doesn't.
2. **Native simplex + branch-and-bound** with the remaining budget — the
   dependency-free backend; its ``LIMIT`` machinery already keeps the
   best incumbent and the tightest open bound.
3. **Continuous round-up** (:mod:`repro.core.continuous`) — the exact
   Li–Yao–Yuan continuous-voltage optimum rounded up to discrete modes.
   Deterministic polynomial time, so it *cannot* time out, and it prices
   its own gap against the continuous lower bound; feasible whenever the
   all-fastest schedule meets the deadline.
4. **Greedy heuristic** (:func:`repro.core.baselines.greedy.greedy_schedule`)
   — O(blocks × modes) construction from the profiled Table-7 style
   parameters; feasible by construction whenever any single mode meets
   the deadline, i.e. whenever the problem is feasible at all.

An exact solve (no budget) is the one-tier ladder: only the requested
tier (the ``auto``/``scipy``/``native`` MILP, or ``continuous``), with
no time limit and no fallback.  Every MILP tier gets the optimizer's
``solver_options``.

Every tier's output passes through the *same* two independent gates
before it is accepted:

* :func:`repro.verify.certificate.verify_certificate` (MILP tiers) —
  constraint residuals, bounds, integrality, objective recomputation;
* :func:`repro.verify.schedule_check.check_schedule` (all tiers) — a
  first-principles replay of the schedule against the profile with
  physically derived transition costs, including the deadline.

A tier whose output fails a gate is treated exactly like a tier that
crashed: the chain moves on.  The returned outcome names the accepted
tier, reports the optimality gap against the best proven lower bound
(the MILP dual bound, or the LP relaxation for the greedy tier) and
records every attempt so manifests can explain *why* a run degraded.

The last tier's failure escapes.  For an exact solve that is the
requested tier's (a failed solver status or an infeasible round-up
raises :class:`~repro.errors.ScheduleError`, an invalid certificate
:class:`~repro.errors.VerificationError`); for a budgeted one it is the
greedy tier's, i.e. genuine infeasibility: a deadline below the
all-fastest runtime has no schedule in any tier, and pretending
otherwise would emit an infeasible result — the one thing this module
exists to prevent.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from repro import observe
from repro.core.baselines.greedy import greedy_schedule
from repro.core.scheduler import OptimizationOutcome
from repro.errors import ReproError, ScheduleError
from repro.solver import load_backends
from repro.solver.solution import Solution, SolveStatus
from repro.verify import certificate as certificates
from repro.verify.schedule_check import check_schedule

#: Smallest wall-clock slice worth handing to a MILP backend; with less
#: remaining the chain skips straight to cheaper tiers.
MIN_TIER_BUDGET_S = 0.01

#: Budget slice allowed for the LP-relaxation bound that prices the
#: greedy tier's optimality gap (skipped silently on failure).
RELAX_BOUND_BUDGET_S = 0.25

TIER_SCIPY = "milp-scipy"
TIER_NATIVE = "milp-native"
TIER_CONTINUOUS = "continuous"
TIER_GREEDY = "greedy"

logger = logging.getLogger("repro.anytime")


@dataclass(frozen=True)
class TierAttempt:
    """One rung of the fallback chain, for the manifest."""

    tier: str
    accepted: bool
    detail: str
    wall_time_s: float = 0.0

    def __str__(self) -> str:
        verdict = "accepted" if self.accepted else "rejected"
        return f"{self.tier}: {verdict} ({self.detail})"


def _lp_relaxation_bound(formulation, backend: str, time_limit: float) -> float | None:
    """Lower bound from the LP relaxation, or None when unavailable."""
    try:
        relaxed = formulation.model.solve(
            backend=backend, relax=True, time_limit=time_limit
        )
    except Exception:  # noqa: BLE001 — a bound is optional, a crash is not
        return None
    if relaxed.status is SolveStatus.OPTIMAL:
        return relaxed.objective
    return None


def _relative_gap(objective: float, bound: float) -> float:
    return max(0.0, (objective - bound) / max(1.0, abs(objective)))


# -- the shared tail: a candidate becomes an outcome ----------------------------------


def milp_outcome(formulation, solution, cfg, profiles, hoist: bool,
                 filter_result=None) -> OptimizationOutcome:
    """Certify a MILP point, extract, price, validate and hoist it.

    ``profiles`` are every profile the schedule must stay silent-safe
    on (one, or one per input category).  Raises
    :class:`~repro.errors.VerificationError` on an invalid certificate
    and :class:`~repro.errors.ScheduleError` on an unusable point.
    """
    certificate = certificates.verify_certificate(
        formulation, solution, allow_incumbent=True)
    certificate.raise_if_invalid()
    schedule = formulation.extract_schedule(solution, allow_incumbent=True)
    energy, time_s = formulation.price(schedule)
    schedule.validate_against(cfg)
    if hoist:
        # Removal is safe only when the mode-set is silent on every
        # profile's paths, so all profiles go in at once.
        schedule = schedule.hoist_silent(*profiles)
    return OptimizationOutcome(
        schedule=schedule,
        solution=solution,
        formulation=formulation,
        profile=profiles[0],
        predicted_energy_nj=energy,
        predicted_time_s=time_s,
        solve_time_s=solution.wall_time,
        filter_result=filter_result,
        certificate=certificate,
        fallback_tier=f"milp-{solution.backend}",
        optimality_gap=solution.optimality_gap(),
    )


def _round_up(optimizer, profile, deadline_s: float, filter_result):
    """The exact continuous optimum and its round-up to discrete modes.

    Returns ``(bound, rounded)``.  Raises
    :class:`~repro.errors.ScheduleError` when either is unavailable
    (a single-mode profile, or a deadline the all-fastest schedule
    misses).
    """
    from repro.core import continuous

    machine = optimizer.machine
    bound = continuous.continuous_bound(profile, machine.mode_table, deadline_s)
    rounded = continuous.round_up_schedule(
        profile, machine.mode_table, deadline_s, bound.speeds,
        machine.transition_model, filter_result,
    )
    if rounded is None:
        raise ScheduleError(
            f"deadline {deadline_s:.6g}s infeasible for {profile.name!r}: "
            "even the all-fastest schedule misses it"
        )
    return bound, rounded


def _round_up_outcome(formulation, bound, rounded, cfg, profile, hoist: bool,
                     filter_result=None) -> OptimizationOutcome:
    """A round-up as an outcome: a feasible point (status FEASIBLE) of
    the exact model, its gap priced against the continuous bound."""
    x, objective, time_s = formulation.incumbent_vector(rounded.rep_modes)
    schedule = rounded.schedule
    schedule.validate_against(cfg)
    if hoist:
        schedule = schedule.hoist_silent(profile)
    return OptimizationOutcome(
        schedule=schedule,
        solution=Solution(status=SolveStatus.FEASIBLE, objective=objective,
                          x=x, backend="continuous",
                          best_bound=bound.energy_nj),
        formulation=formulation,
        profile=profile,
        predicted_energy_nj=objective,
        predicted_time_s=time_s,
        solve_time_s=0.0,
        filter_result=filter_result,
        fallback_tier=TIER_CONTINUOUS,
        optimality_gap=_relative_gap(objective, bound.energy_nj),
    )


# -- the ladder -----------------------------------------------------------------------


def optimize_anytime(
    optimizer,
    cfg,
    deadline_s: float,
    profile,
    budget_s: float | None = None,
    use_filtering: bool | None = None,
    hoist: bool = True,
):
    """Run the tier ladder for one program and deadline.

    Args:
        optimizer: the :class:`~repro.core.scheduler.DVSOptimizer`.
        cfg: the program.
        deadline_s: execution-time budget for the profiled input.
        profile: the program's per-mode profile (must be pre-computed —
            profiling is not charged against the solver budget).
        budget_s: wall-clock budget for the solve chain, in seconds;
            None for the exact solve (the requested tier alone).
        use_filtering, hoist: as in
            :meth:`~repro.core.scheduler.DVSOptimizer.optimize`.

    Returns:
        an :class:`~repro.core.scheduler.OptimizationOutcome` whose
        ``fallback_tier``/``optimality_gap``/``tier_attempts`` fields
        describe how the schedule was obtained.

    Raises:
        ScheduleError, VerificationError: the last tier's rejection (see
            the module docstring).
    """
    exact = budget_s is None
    if not exact and budget_s <= 0:
        raise ScheduleError(f"anytime budget must be positive, got {budget_s:g}")

    formulation, filter_result = optimizer.build(profile, deadline_s, use_filtering)
    machine = optimizer.machine
    if not exact:
        # The backends' scipy imports take longer than a small solve; a
        # fresh process or pool worker must not spend its budget on them.
        load_backends()
    start = observe.clock()
    attempts: list[TierAttempt] = []

    def remaining() -> float:
        return math.inf if exact else budget_s - (observe.clock() - start)

    def milp_options() -> dict:
        options = dict(optimizer.solver_options)
        if options.pop("continuous_prune", False):
            # Warm B&B incumbent from the round-up: an accelerator, never
            # a prerequisite, and handed over only when it meets the
            # formulation's own deadline row.
            try:
                _, rounded = _round_up(optimizer, profile, deadline_s, filter_result)
            except ScheduleError:
                return options
            x, objective, time_s = formulation.incumbent_vector(rounded.rep_modes)
            if time_s <= deadline_s:
                observe.add("optimizer.continuous_incumbents")
                options["incumbent"] = (x, objective)
        return options

    def milp_tier(backend: str, options: dict):
        def run():
            left = remaining()
            if left < MIN_TIER_BUDGET_S:
                raise ScheduleError("budget exhausted")
            limit = {} if exact else {"time_limit": left}
            solution = formulation.solve(backend=backend, **limit, **options)
            if not (solution.ok if exact else solution.has_incumbent):
                raise ScheduleError(
                    f"MILP for {profile.name!r} at deadline {deadline_s:.6g}s "
                    f"finished with status {solution.status.value}"
                )
            outcome = milp_outcome(formulation, solution, cfg, [profile], hoist,
                                   filter_result)
            if outcome.optimality_gap is None:
                bound = _lp_relaxation_bound(
                    formulation, backend, max(remaining(), RELAX_BOUND_BUDGET_S))
                if bound is not None:
                    outcome.optimality_gap = _relative_gap(solution.objective, bound)
            return outcome, "incumbent"
        return run

    def continuous_tier():
        # Deterministic polynomial time: exempt from the budget check —
        # it cannot time out, which is exactly why it sits between the
        # budgeted MILP tiers and the last-resort greedy.
        bound, rounded = _round_up(optimizer, profile, deadline_s, filter_result)
        outcome = _round_up_outcome(formulation, bound, rounded, cfg, profile,
                                   hoist, filter_result)
        return outcome, "round-up from continuous optimum"

    def greedy_tier():
        # Raises ScheduleError when no single mode meets the deadline; such a
        # deadline is below the all-fastest runtime, so the MILP is infeasible
        # too and there is nothing feasible to return.
        greedy = greedy_schedule(
            profile, machine.mode_table, deadline_s,
            transition_model=machine.transition_model,
        )
        bound = _lp_relaxation_bound(formulation, optimizer.backend,
                                     RELAX_BOUND_BUDGET_S)
        energy = greedy.predicted_energy_nj
        outcome = OptimizationOutcome(
            schedule=(greedy.schedule.hoist_silent(profile) if hoist
                      else greedy.schedule),
            solution=Solution(status=SolveStatus.FEASIBLE, objective=energy,
                              x=np.empty(0), backend="greedy", best_bound=bound),
            formulation=formulation,
            profile=profile,
            predicted_energy_nj=energy,
            predicted_time_s=greedy.predicted_time_s,
            solve_time_s=0.0,
            filter_result=filter_result,
            fallback_tier=TIER_GREEDY,
            optimality_gap=None if bound is None else _relative_gap(energy, bound),
        )
        return outcome, f"{greedy.moves_taken}/{greedy.moves_considered} moves"

    if optimizer.backend == "continuous":
        backends = []
    elif exact:
        backends = [optimizer.backend]
    else:
        backends = (["scipy"] if optimizer.backend in ("auto", "scipy") else []) + ["native"]
    options = milp_options() if backends else {}
    tiers = [(f"milp-{backend}", milp_tier(backend, options)) for backend in backends]
    if not (exact and tiers):
        tiers.append((TIER_CONTINUOUS, continuous_tier))
    if not exact:
        tiers.append((TIER_GREEDY, greedy_tier))

    for position, (tier, run) in enumerate(tiers):
        with observe.span("anytime.tier", tier=tier) as tsp:
            try:
                outcome, note = run()
                report = check_schedule(
                    outcome.schedule, cfg, profile, machine.mode_table,
                    machine.transition_model, deadline_s,
                )
                if not report.ok:
                    raise ScheduleError(f"{outcome.fallback_tier} schedule failed "
                                        f"its feasibility replay: {report.summary}")
            except Exception as error:
                if position == len(tiers) - 1:
                    raise
                # A dead backend or a failed gate is a tier miss.
                detail = (str(error) if isinstance(error, ReproError)
                          else f"{type(error).__name__}: {error}")
                attempts.append(TierAttempt(tier, False, detail, tsp.elapsed_s))
                observe.add("anytime.tier_rejections")
                logger.info("anytime tier %s rejected: %s", tier, detail)
                continue
            gap = outcome.optimality_gap
            attempts.append(TierAttempt(
                outcome.fallback_tier, True,
                "proven optimal" if outcome.solution.ok else
                f"{note}, gap {gap:.3%}" if gap is not None else
                f"{note}, gap unknown",
                tsp.elapsed_s,
            ))
            observe.add(f"anytime.tier.{outcome.fallback_tier}")
            tsp.set(accepted=True)
        outcome.solve_time_s = observe.clock() - start
        outcome.tier_attempts = tuple(attempts)
        outcome.schedule_check = report
        return outcome
