"""High-level compile-time DVS pipeline (the paper's Figure 13).

:class:`DVSOptimizer` ties the pieces together::

    profile  ->  filter edges  ->  build MILP  ->  solve  ->  schedule
                                                      |
                             verify: simulate the scheduled program

Typical use::

    from repro.core import DVSOptimizer
    from repro.simulator import Machine, XSCALE_3, TransitionCostModel

    machine = Machine(mode_table=XSCALE_3,
                      transition_model=TransitionCostModel())
    opt = DVSOptimizer(machine)
    outcome = opt.optimize(cfg, deadline_s=1e-3, inputs=..., registers=...)
    print(outcome.schedule, outcome.predicted_energy_nj)
    run = opt.verify(cfg, outcome.schedule, inputs=..., registers=...)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import observe
from repro.errors import ScheduleError, SimulationError
from repro.ir.cfg import CFG
from repro.core.milp.filtering import FilterResult, filter_edges, no_filtering
from repro.core.milp.schedule import DVSSchedule
from repro.profiling.profile_data import ProfileData
from repro.profiling.profiler import profile_program
from repro.simulator.machine import ExecutionStream, Machine, RunResult

if TYPE_CHECKING:
    # The solver stack (numpy, scipy) is imported by the methods that
    # build or solve a model, so a process that only replays and checks
    # cached schedules never loads it.
    from repro.core.milp.formulation import MilpFormulation
    from repro.core.milp.multidata import CategoryProfile
    from repro.solver.solution import Solution
    from repro.verify.certificate import CertificateReport

logger = logging.getLogger("repro.scheduler")


@dataclass
class OptimizationOutcome:
    """Everything one optimization run produced."""

    schedule: DVSSchedule
    solution: Solution
    formulation: MilpFormulation
    profile: ProfileData
    # The schedule's canonical price (MilpFormulation.price): a function
    # of the mode assignment alone, never of the backend that found it.
    predicted_energy_nj: float
    predicted_time_s: float
    solve_time_s: float
    filter_result: FilterResult | None = None
    # Independent re-check of the solve (constraint residuals, bounds,
    # integrality, objective recomputation); attached to every MILP
    # tier's outcome, which is refused when it fails.  The continuous
    # and greedy tiers have no MILP point to certify.
    certificate: CertificateReport | None = None
    # Which rung of the tier ladder produced the schedule ("milp-scipy",
    # "milp-native", "continuous" or "greedy"); an exact MILP solve names
    # the backend that ran.
    fallback_tier: str = "milp"
    # Relative gap between the emitted schedule's energy and the best
    # proven lower bound (0.0 for a proven optimum, None when no bound
    # could be established within budget).
    optimality_gap: float | None = 0.0
    # Every rung tried, in order, with its verdict; an exact solve has
    # exactly one, the accepted one.
    tier_attempts: tuple = ()
    # Independent first-principles replay of the final schedule
    # (:func:`repro.verify.schedule_check.check_schedule`); attached by
    # the ladder to every outcome, exact or budgeted, of every tier.
    schedule_check: object | None = None

    @property
    def num_independent_edges(self) -> int:
        return len(self.formulation.independent_edges)

    @property
    def degraded(self) -> bool:
        """True when the schedule is feasible but not proven optimal."""
        return not self.solution.ok


class DVSOptimizer:
    """Profile-driven MILP placement of DVS mode-set instructions.

    Args:
        machine: simulator whose mode table and transition model define
            the optimization target.
        filter_threshold: Section 5.2 energy-tail threshold (paper: 0.02);
            pass 0 to disable filtering.
        backend: solver backend ("auto", "scipy", "native", or
            "continuous" — the exact continuous-voltage engine of
            :mod:`repro.core.continuous`, whose rounded-up discrete
            schedule is feasible but not proven optimal).
        solver_options: extra keyword options forwarded to every solve
            (e.g. ``warm_key`` so a sweep's consecutive deadlines hand their
            basis and pseudocosts to each other; ``continuous_prune``
            seeds the native branch-and-bound with the continuous
            round-up as a warm incumbent).  Execution hints only — they
            never change the optimum.
    """

    BACKENDS = ("auto", "scipy", "native", "continuous")

    def __init__(
        self,
        machine: Machine,
        filter_threshold: float = 0.02,
        backend: str = "auto",
        solver_options: dict | None = None,
    ) -> None:
        if backend not in self.BACKENDS:
            raise ScheduleError(
                f"unknown backend {backend!r}; expected one of {self.BACKENDS}"
            )
        self.machine = machine
        self.filter_threshold = filter_threshold
        self.backend = backend
        self.solver_options = dict(solver_options or {})

    # -- pipeline stages ---------------------------------------------------------

    def profile(
        self,
        cfg: CFG,
        inputs: dict[str, list] | None = None,
        registers: dict[str, float] | None = None,
        record: ExecutionStream | None = None,
    ) -> ProfileData:
        """Profile the program under every mode of the machine.

        ``record`` (an empty stream) receives the profiling run's
        recording, for :meth:`verify` to time a schedule from; it stays
        empty when the fast path is off.
        """
        return profile_program(self.machine, cfg, inputs=inputs,
                               registers=registers, record=record)

    def build(
        self,
        profile: ProfileData,
        deadline_s: float,
        use_filtering: bool | None = None,
    ) -> tuple[MilpFormulation, FilterResult]:
        """Filter edges and build the MILP for a profile."""
        from repro.core.milp.formulation import FormulationOptions, build_formulation

        apply_filter = (
            use_filtering if use_filtering is not None else self.filter_threshold > 0
        )
        filter_result = (
            filter_edges(profile, threshold=self.filter_threshold)
            if apply_filter
            else no_filtering(profile)
        )
        formulation = build_formulation(
            profile,
            self.machine.mode_table,
            deadline_s,
            FormulationOptions(
                transition_model=self.machine.transition_model,
                filter_result=filter_result,
            ),
        )
        return formulation, filter_result

    def optimize(
        self,
        cfg: CFG,
        deadline_s: float,
        inputs: dict[str, list] | None = None,
        registers: dict[str, float] | None = None,
        profile: ProfileData | None = None,
        use_filtering: bool | None = None,
        hoist: bool = True,
        budget_s: float | None = None,
    ) -> OptimizationOutcome:
        """Run the full pipeline for one program and deadline.

        Args:
            cfg: the program.
            deadline_s: execution-time budget for the profiled input.
            inputs, registers: program input (ignored when ``profile``
                is supplied).
            profile: reuse an existing profile instead of re-simulating.
            use_filtering: override the constructor's filtering choice.
            hoist: apply the silent-mode-set hoisting post-pass.
            budget_s: wall-clock budget for the solve.  Every solve runs
                the tier ladder of :mod:`repro.resilience.anytime`.  When
                set, the ladder falls back (HiGHS → native B&B incumbent
                → continuous round-up → greedy heuristic) and guarantees
                a feasible, independently checked schedule within
                roughly this budget instead of raising on solver limits;
                the outcome's ``fallback_tier``/``optimality_gap`` report
                how it was obtained.  When None (the default), the solve
                is exact: the requested backend's tier alone, with no
                time limit.

        Raises:
            ScheduleError: when the deadline is infeasible (too tight even
                at the fastest mode); without ``budget_s``, also when the
                solver finishes without an optimum or the schedule fails
                its feasibility replay.
            VerificationError: without ``budget_s``, when the solution's
                certificate is invalid.
        """
        if profile is None:
            profile = self.profile(cfg, inputs=inputs, registers=registers)
        from repro.resilience.anytime import optimize_anytime

        with observe.span("optimizer.optimize", program=profile.name,
                          deadline_s=deadline_s):
            return optimize_anytime(
                self, cfg, deadline_s, profile, budget_s,
                use_filtering=use_filtering, hoist=hoist,
            )

    # -- the exact continuous-voltage engine ---------------------------------------

    def continuous_bound(self, profile: ProfileData, deadline_s: float):
        """Exact continuous-voltage optimum (nJ lower bound) for a profile.

        See :func:`repro.core.continuous.continuous_bound`; this is the
        achievable-optimum upgrade of the paper's Section 3 analytical
        bound, computed by the Li-Yao-Yuan O(n^2) engine.
        """
        from repro.core.continuous import continuous_bound

        return continuous_bound(profile, self.machine.mode_table, deadline_s)

    def optimize_multi(
        self,
        cfg: CFG,
        categories: list[CategoryProfile],
        use_filtering: bool | None = None,
        hoist: bool = True,
    ) -> OptimizationOutcome:
        """Section 4.3: one schedule for several weighted input categories."""
        from repro.core.milp.multidata import build_multidata_formulation
        from repro.resilience.anytime import milp_outcome

        apply_filter = (
            use_filtering if use_filtering is not None else self.filter_threshold > 0
        )
        filter_result = (
            filter_edges(categories[0].profile, threshold=self.filter_threshold)
            if apply_filter
            else None
        )
        formulation = build_multidata_formulation(
            categories,
            self.machine.mode_table,
            transition_model=self.machine.transition_model,
            filter_result=filter_result,
        )
        options = dict(self.solver_options)
        options.pop("continuous_prune", None)  # single-profile hint only
        backend = self.backend if self.backend != "continuous" else "auto"
        with observe.span("optimizer.optimize_multi",
                          categories=len(categories)):
            solution = formulation.solve(backend=backend, **options)
        if not solution.ok:
            raise ScheduleError(
                f"multi-category MILP finished with status {solution.status.value}"
            )
        return milp_outcome(formulation, solution, cfg,
                            [c.profile for c in categories], hoist, filter_result)

    # -- verification ---------------------------------------------------------------

    def verify(
        self,
        cfg: CFG,
        schedule: DVSSchedule,
        inputs: dict[str, list] | None = None,
        registers: dict[str, float] | None = None,
        stream: ExecutionStream | None = None,
    ) -> RunResult:
        """Execute the scheduled program on the simulator.

        Returns the measured run; callers compare its wall time against
        the deadline and its energy against the prediction.  Given the
        profiling run's recorded ``stream``, the schedule is timed by a
        replay of it (:meth:`Machine.replay`, bit-identical to the run);
        a stream the replay refuses falls back to the full run.
        """
        initial = schedule.initial_mode
        initial = initial if initial is not None else len(self.machine.mode_table) - 1
        if stream is not None:
            try:
                return self.machine.replay(stream, schedule=schedule.assignment,
                                           initial_mode=initial)
            except SimulationError as error:
                observe.add("verify.full_run.refused")
                logger.warning("%s: stream refused, simulating in full: %s",
                               cfg.name, error)
        return self.machine.run(
            cfg,
            inputs=inputs,
            registers=registers,
            schedule=schedule.assignment,
            initial_mode=initial,
        )

    # -- design-space exploration --------------------------------------------------

    def energy_deadline_curve(
        self,
        cfg: CFG,
        profile: ProfileData,
        fractions: list[float] | None = None,
    ) -> list[tuple[float, float]]:
        """The energy/deadline Pareto frontier for one profiled program.

        Args:
            cfg: the program.
            profile: its profile (all modes).
            fractions: deadline positions in the all-fast..all-slow range
                (default: 11 evenly spaced points from 0.0 to 1.0).

        Returns:
            [(deadline_s, optimal_energy_nj), ...] sorted by deadline.
            Energy is non-increasing along the curve: a looser deadline
            only grows the feasible set (the ``deadline-monotonicity``
            oracle checks it).

        Raises:
            ProfileError: the profile has a single mode, so there is no
                fast->slow deadline range to sweep.
        """
        fractions = fractions if fractions is not None else [i / 10 for i in range(11)]
        curve: list[tuple[float, float]] = []
        for frac in sorted(fractions):
            deadline = profile.deadline_at(frac)
            outcome = self.optimize(cfg, deadline, profile=profile)
            curve.append((deadline, outcome.predicted_energy_nj))
        return curve

    # -- baselines --------------------------------------------------------------------

    def best_single_mode(
        self,
        profile: ProfileData,
        deadline_s: float,
    ) -> tuple[int, float]:
        """Slowest single mode meeting the deadline and its energy (nJ).

        This is the baseline the paper normalizes against ("the best
        single frequency that meets the deadline").
        """
        return profile.best_single_mode(deadline_s, len(self.machine.mode_table))
