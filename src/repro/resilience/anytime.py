"""Anytime optimization: a budgeted solve that always returns a schedule.

:func:`optimize_anytime` runs the Section 4.2 MILP under a wall-clock
budget and degrades through a fallback chain instead of raising:

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

The only exception that escapes is genuine infeasibility: a deadline
below the all-fastest runtime has no schedule in any tier, and
pretending otherwise would emit an infeasible result — the one thing
this module exists to prevent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro import observe
from repro.core.baselines.greedy import greedy_schedule
from repro.errors import ScheduleError
from repro.solver import load_backends
from repro.solver.solution import Solution, SolveStatus
from repro.verify.certificate import verify_certificate
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


def optimize_anytime(
    optimizer,
    cfg,
    deadline_s: float,
    profile,
    budget_s: float,
    use_filtering: bool | None = None,
    hoist: bool = True,
):
    """Budgeted optimize that never raises except for true infeasibility.

    Args:
        optimizer: the :class:`~repro.core.scheduler.DVSOptimizer`.
        cfg: the program.
        deadline_s: execution-time budget for the profiled input.
        profile: the program's per-mode profile (must be pre-computed —
            profiling is not charged against the solver budget).
        budget_s: wall-clock budget for the solve chain, in seconds.
        use_filtering, hoist: as in
            :meth:`~repro.core.scheduler.DVSOptimizer.optimize`.

    Returns:
        an :class:`~repro.core.scheduler.OptimizationOutcome` whose
        ``fallback_tier``/``optimality_gap``/``tier_attempts`` fields
        describe how the schedule was obtained.

    Raises:
        ScheduleError: only when the deadline is genuinely infeasible
            (below the all-fastest-mode runtime).
    """
    from repro.core.scheduler import OptimizationOutcome

    if budget_s <= 0:
        raise ScheduleError(f"anytime budget must be positive, got {budget_s:g}")

    formulation, filter_result = optimizer.build(profile, deadline_s, use_filtering)
    machine = optimizer.machine
    # The backends' scipy imports take longer than a small solve; a fresh
    # process or pool worker must not spend its budget on them.
    load_backends()
    start = observe.clock()
    attempts: list[TierAttempt] = []

    def remaining() -> float:
        return budget_s - (observe.clock() - start)

    def reject(attempt: TierAttempt) -> None:
        attempts.append(attempt)
        observe.add("anytime.tier_rejections")
        logger.info("anytime tier %s rejected: %s", attempt.tier, attempt.detail)

    def gate_schedule(schedule):
        """Independent replay check; returns (report, hoisted schedule)."""
        final = schedule.hoist_silent(profile) if hoist else schedule
        report = check_schedule(
            final, cfg, profile, machine.mode_table,
            machine.transition_model, deadline_s,
        )
        return report, final

    # -- MILP tiers -------------------------------------------------------------
    tiers = []
    if optimizer.backend != "continuous":
        if optimizer.backend in ("auto", "scipy"):
            tiers.append((TIER_SCIPY, "scipy"))
        tiers.append((TIER_NATIVE, "native"))

    for tier, backend in tiers:
        left = remaining()
        if left < MIN_TIER_BUDGET_S:
            reject(TierAttempt(tier, False, "budget exhausted"))
            continue
        with observe.span("anytime.tier", tier=tier, budget_s=left) as tsp:
            try:
                solution = formulation.solve(backend=backend, time_limit=left)
            except Exception as error:  # noqa: BLE001 — a dead backend is a tier miss
                reject(TierAttempt(
                    tier, False, f"{type(error).__name__}: {error}",
                    tsp.elapsed_s,
                ))
                continue
            tier_time = tsp.elapsed_s
            if not solution.has_incumbent:
                reject(TierAttempt(
                    tier, False, f"status {solution.status.value}, no incumbent",
                    tier_time,
                ))
                continue
            certificate = verify_certificate(formulation, solution, allow_incumbent=True)
            if not certificate.ok:
                reject(TierAttempt(tier, False, certificate.summary, tier_time))
                continue
            try:
                schedule = formulation.extract_schedule(solution, allow_incumbent=True)
                energy, time_s = formulation.price(schedule)
                schedule.validate_against(cfg)
            except ScheduleError as error:
                reject(TierAttempt(tier, False, str(error), tier_time))
                continue
            feasibility, final = gate_schedule(schedule)
            if not feasibility.ok:
                reject(TierAttempt(tier, False, feasibility.summary, tier_time))
                continue

            gap = solution.optimality_gap()
            if gap is None:
                bound = _lp_relaxation_bound(
                    formulation, backend, max(remaining(), RELAX_BOUND_BUDGET_S)
                )
                if bound is not None:
                    gap = max(0.0, (solution.objective - bound)
                              / max(1.0, abs(solution.objective)))
            proven = solution.ok
            attempts.append(TierAttempt(
                tier, True,
                "proven optimal" if proven else
                f"incumbent, gap {gap:.3%}" if gap is not None else
                "incumbent, gap unknown",
                tsp.elapsed_s,
            ))
            observe.add(f"anytime.tier.{tier}")
            tsp.set(accepted=True)
        return OptimizationOutcome(
            schedule=final,
            solution=solution,
            formulation=formulation,
            profile=profile,
            predicted_energy_nj=energy,
            predicted_time_s=time_s,
            solve_time_s=observe.clock() - start,
            filter_result=filter_result,
            certificate=certificate,
            fallback_tier=tier,
            optimality_gap=gap,
            tier_attempts=tuple(attempts),
            schedule_check=feasibility,
        )

    # -- continuous round-up tier -----------------------------------------------
    # Deterministic polynomial time: this tier is exempt from the budget
    # check — it cannot time out, which is exactly why it sits between
    # the budgeted MILP tiers and the last-resort greedy.
    from repro.core.continuous import continuous_bound, round_up_schedule

    with observe.span("anytime.tier", tier=TIER_CONTINUOUS) as tsp:
        cont_outcome = None
        try:
            cont_bound = continuous_bound(
                profile, machine.mode_table, deadline_s
            )
            rounded = round_up_schedule(
                profile, machine.mode_table, deadline_s, cont_bound.speeds,
                machine.transition_model, filter_result,
            )
        except ScheduleError as error:
            reject(TierAttempt(TIER_CONTINUOUS, False, str(error), tsp.elapsed_s))
            rounded = None
        else:
            if rounded is None:
                reject(TierAttempt(
                    TIER_CONTINUOUS, False,
                    "all-fastest schedule misses the deadline", tsp.elapsed_s,
                ))
        if rounded is not None:
            x, objective, time_s = formulation.incumbent_vector(rounded.rep_modes)
            try:
                rounded.schedule.validate_against(cfg)
            except ScheduleError as error:
                reject(TierAttempt(TIER_CONTINUOUS, False, str(error), tsp.elapsed_s))
            else:
                feasibility, final = gate_schedule(rounded.schedule)
                if not feasibility.ok:
                    reject(TierAttempt(
                        TIER_CONTINUOUS, False, feasibility.summary, tsp.elapsed_s
                    ))
                else:
                    gap = max(0.0, (objective - cont_bound.energy_nj)
                              / max(1.0, abs(objective)))
                    attempts.append(TierAttempt(
                        TIER_CONTINUOUS, True,
                        f"round-up from continuous optimum, gap {gap:.3%}",
                        tsp.elapsed_s,
                    ))
                    observe.add(f"anytime.tier.{TIER_CONTINUOUS}")
                    tsp.set(accepted=True)
                    solution = Solution(
                        status=SolveStatus.FEASIBLE,
                        objective=objective,
                        x=x,
                        backend="continuous",
                        best_bound=cont_bound.energy_nj,
                    )
                    cont_outcome = OptimizationOutcome(
                        schedule=final,
                        solution=solution,
                        formulation=formulation,
                        profile=profile,
                        predicted_energy_nj=objective,
                        predicted_time_s=time_s,
                        solve_time_s=observe.clock() - start,
                        filter_result=filter_result,
                        certificate=None,
                        fallback_tier=TIER_CONTINUOUS,
                        optimality_gap=gap,
                        tier_attempts=tuple(attempts),
                        schedule_check=feasibility,
                    )
    if cont_outcome is not None:
        return cont_outcome

    # -- greedy tier ------------------------------------------------------------
    with observe.span("anytime.tier", tier=TIER_GREEDY) as tsp:
        # Raises ScheduleError when no single mode meets the deadline; such a
        # deadline is below the all-fastest runtime, so the MILP is infeasible
        # too and there is nothing feasible to return.
        greedy = greedy_schedule(
            profile, machine.mode_table, deadline_s,
            transition_model=machine.transition_model,
        )
        feasibility, final = gate_schedule(greedy.schedule)
        if not feasibility.ok:
            # By construction this cannot happen (the greedy acceptance check
            # prices exactly what the replay recomputes); treat it as the
            # infeasibility it would be rather than emit an unchecked result.
            raise ScheduleError(
                f"greedy fallback failed its feasibility replay: {feasibility.summary}"
            )
        bound = _lp_relaxation_bound(formulation, optimizer.backend
                                     if optimizer.backend != "auto" else "auto",
                                     RELAX_BOUND_BUDGET_S)
        gap = None
        if bound is not None:
            gap = max(0.0, (greedy.predicted_energy_nj - bound)
                      / max(1.0, abs(greedy.predicted_energy_nj)))
        attempts.append(TierAttempt(
            TIER_GREEDY, True,
            f"{greedy.moves_taken}/{greedy.moves_considered} moves"
            + (f", gap {gap:.3%}" if gap is not None else ", gap unknown"),
            tsp.elapsed_s,
        ))
        observe.add(f"anytime.tier.{TIER_GREEDY}")
        tsp.set(accepted=True)
    solution = Solution(
        status=SolveStatus.FEASIBLE,
        objective=greedy.predicted_energy_nj,
        x=np.empty(0),
        backend="greedy",
        best_bound=bound,
    )
    return OptimizationOutcome(
        schedule=final,
        solution=solution,
        formulation=formulation,
        profile=profile,
        predicted_energy_nj=greedy.predicted_energy_nj,
        predicted_time_s=greedy.predicted_time_s,
        solve_time_s=observe.clock() - start,
        filter_result=filter_result,
        certificate=None,
        fallback_tier=TIER_GREEDY,
        optimality_gap=gap,
        tier_attempts=tuple(attempts),
        schedule_check=feasibility,
    )
