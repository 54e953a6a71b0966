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

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import observe
from repro.errors import ScheduleError
from repro.ir.cfg import CFG
from repro.core.milp.filtering import FilterResult, filter_edges, no_filtering
from repro.core.milp.schedule import DVSSchedule
from repro.profiling.profile_data import ProfileData
from repro.profiling.profiler import profile_program
from repro.simulator.machine import Machine, RunResult

if TYPE_CHECKING:
    # The solver stack (numpy, scipy) is imported by the methods that
    # build or solve a model, so a process that only replays and checks
    # cached schedules never loads it.
    from repro.core.milp.formulation import MilpFormulation
    from repro.core.milp.multidata import CategoryProfile
    from repro.solver.solution import Solution
    from repro.verify.certificate import CertificateReport


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
    # integrality, objective recomputation); always attached by the
    # optimizer, which refuses to ship an uncertified solution.  The
    # greedy fallback tier has no MILP point to certify; its outcome
    # carries a ``schedule_check`` replay report instead.
    certificate: CertificateReport | None = None
    # Which rung of the anytime fallback chain produced the schedule
    # ("milp-scipy", "milp-native" or "greedy"); exact solves record the
    # backend that ran.
    fallback_tier: str = "milp"
    # Relative gap between the emitted schedule's energy and the best
    # proven lower bound (0.0 for a proven optimum, None when no bound
    # could be established within budget).
    optimality_gap: float | None = 0.0
    # Every fallback rung tried, in order, with its verdict.
    tier_attempts: tuple = ()
    # Independent first-principles replay of the final schedule
    # (:func:`repro.verify.schedule_check.check_schedule`); attached by
    # the anytime path for every tier.
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
    ) -> ProfileData:
        """Profile the program under every mode of the machine."""
        return profile_program(self.machine, cfg, inputs=inputs, registers=registers)

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
            budget_s: wall-clock budget for the solve.  When set, the
                anytime fallback chain (HiGHS → native B&B incumbent →
                greedy heuristic) guarantees a feasible, independently
                checked schedule within roughly this budget instead of
                raising on solver limits; the outcome's
                ``fallback_tier``/``optimality_gap`` report how it was
                obtained.  When None (the default), the solve is exact
                and solver limits raise.

        Raises:
            ScheduleError: when the MILP is infeasible (deadline too tight
                even at the fastest mode); without ``budget_s``, also when
                the solver hits its limits.
        """
        if profile is None:
            profile = self.profile(cfg, inputs=inputs, registers=registers)
        if budget_s is not None:
            from repro.resilience.anytime import optimize_anytime

            return optimize_anytime(
                self, cfg, deadline_s, profile, budget_s,
                use_filtering=use_filtering, hoist=hoist,
            )
        if self.backend == "continuous":
            return self._optimize_continuous(
                cfg, deadline_s, profile, use_filtering, hoist
            )
        from repro.verify.certificate import verify_certificate

        formulation, filter_result = self.build(profile, deadline_s, use_filtering)

        options = dict(self.solver_options)
        if options.pop("continuous_prune", False):
            incumbent = self.continuous_incumbent(
                profile, deadline_s, formulation, filter_result
            )
            if incumbent is not None:
                options["incumbent"] = incumbent
        with observe.span("optimizer.optimize", program=profile.name,
                          deadline_s=deadline_s) as sp:
            solution = formulation.solve(backend=self.backend, **options)
        solve_time = sp.elapsed_s
        if not solution.ok:
            raise ScheduleError(
                f"MILP for {profile.name!r} at deadline {deadline_s:.6g}s "
                f"finished with status {solution.status.value}"
            )
        certificate = verify_certificate(formulation, solution)
        certificate.raise_if_invalid()
        schedule = formulation.extract_schedule(solution)
        energy, time_s = formulation.price(schedule)
        schedule.validate_against(cfg)
        if hoist:
            schedule = schedule.hoist_silent(profile)
        return OptimizationOutcome(
            schedule=schedule,
            solution=solution,
            formulation=formulation,
            profile=profile,
            predicted_energy_nj=energy,
            predicted_time_s=time_s,
            solve_time_s=solve_time,
            filter_result=filter_result,
            certificate=certificate,
            fallback_tier=f"milp-{solution.backend}",
            optimality_gap=solution.optimality_gap(),
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

    def continuous_incumbent(
        self,
        profile: ProfileData,
        deadline_s: float,
        formulation: MilpFormulation,
        filter_result: FilterResult | None,
    ):
        """Warm B&B incumbent ``(x, objective)`` from the continuous round-up.

        Returns None when the bound or round-up is unavailable (e.g. a
        single-mode profile or an infeasible deadline) — pruning is an
        accelerator, never a prerequisite.  The vector is checked against
        the formulation's own deadline row before it is handed over, so
        an injected incumbent is always a feasible point of the exact
        model being solved.
        """
        from repro.core.continuous import continuous_bound, round_up_schedule

        try:
            bound = continuous_bound(profile, self.machine.mode_table, deadline_s)
            rounded = round_up_schedule(
                profile, self.machine.mode_table, deadline_s, bound.speeds,
                self.machine.transition_model, filter_result,
            )
        except ScheduleError:
            return None
        if rounded is None:
            return None
        x, objective, time_s = formulation.incumbent_vector(rounded.rep_modes)
        if time_s > deadline_s:
            return None
        observe.add("optimizer.continuous_incumbents")
        return x, objective

    def _optimize_continuous(
        self,
        cfg: CFG,
        deadline_s: float,
        profile: ProfileData,
        use_filtering: bool | None,
        hoist: bool,
    ) -> OptimizationOutcome:
        """The ``backend="continuous"`` path: exact continuous optimum,
        rounded up to a feasible discrete schedule.

        The outcome's ``predicted_energy_nj`` is the rounded schedule's
        exact model objective (a feasible point, not a proven optimum —
        the solution status is FEASIBLE and ``optimality_gap`` prices it
        against the continuous lower bound).  Never times out: the whole
        path is O(n^2) + a handful of profile replays.
        """
        from repro.core.continuous import continuous_bound, round_up_schedule
        from repro.solver.solution import Solution, SolveStatus
        from repro.verify.schedule_check import check_schedule

        formulation, filter_result = self.build(profile, deadline_s, use_filtering)
        with observe.span("optimizer.continuous", program=profile.name,
                          deadline_s=deadline_s) as sp:
            bound = continuous_bound(profile, self.machine.mode_table, deadline_s)
            rounded = round_up_schedule(
                profile, self.machine.mode_table, deadline_s, bound.speeds,
                self.machine.transition_model, filter_result,
            )
            if rounded is None:
                raise ScheduleError(
                    f"deadline {deadline_s:.6g}s infeasible for {profile.name!r}: "
                    "even the all-fastest schedule misses it"
                )
            x, objective, time_s = formulation.incumbent_vector(rounded.rep_modes)
        schedule = rounded.schedule
        schedule.validate_against(cfg)
        if hoist:
            schedule = schedule.hoist_silent(profile)
        feasibility = check_schedule(
            schedule, cfg, profile, self.machine.mode_table,
            self.machine.transition_model, deadline_s,
        )
        if not feasibility.ok:
            raise ScheduleError(
                f"continuous round-up failed its feasibility replay: "
                f"{feasibility.summary}"
            )
        solution = Solution(
            status=SolveStatus.FEASIBLE,
            objective=objective,
            x=x,
            backend="continuous",
            best_bound=bound.energy_nj,
        )
        gap = max(0.0, (objective - bound.energy_nj) / max(1.0, abs(objective)))
        return OptimizationOutcome(
            schedule=schedule,
            solution=solution,
            formulation=formulation,
            profile=profile,
            predicted_energy_nj=objective,
            predicted_time_s=time_s,
            solve_time_s=sp.elapsed_s,
            filter_result=filter_result,
            certificate=None,
            fallback_tier="continuous",
            optimality_gap=gap,
            schedule_check=feasibility,
        )

    def optimize_multi(
        self,
        cfg: CFG,
        categories: list[CategoryProfile],
        use_filtering: bool | None = None,
        hoist: bool = True,
    ) -> OptimizationOutcome:
        """Section 4.3: one schedule for several weighted input categories."""
        from repro.core.milp.multidata import build_multidata_formulation
        from repro.verify.certificate import verify_certificate

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
                          categories=len(categories)) as sp:
            solution = formulation.solve(backend=backend, **options)
        solve_time = sp.elapsed_s
        if not solution.ok:
            raise ScheduleError(
                f"multi-category MILP finished with status {solution.status.value}"
            )
        certificate = verify_certificate(formulation, solution)
        certificate.raise_if_invalid()
        schedule = formulation.extract_schedule(solution)
        energy, time_s = formulation.price(schedule)
        schedule.validate_against(cfg)
        if hoist:
            # Removal is safe only when the mode-set is silent on every
            # category's profiled paths, so all profiles go in at once.
            schedule = schedule.hoist_silent(*[c.profile for c in categories])
        return OptimizationOutcome(
            schedule=schedule,
            solution=solution,
            formulation=formulation,
            profile=categories[0].profile,
            predicted_energy_nj=energy,
            predicted_time_s=time_s,
            solve_time_s=solve_time,
            filter_result=filter_result,
            certificate=certificate,
            fallback_tier=f"milp-{solution.backend}",
            optimality_gap=solution.optimality_gap(),
        )

    # -- verification ---------------------------------------------------------------

    def verify(
        self,
        cfg: CFG,
        schedule: DVSSchedule,
        inputs: dict[str, list] | None = None,
        registers: dict[str, float] | None = None,
    ) -> RunResult:
        """Execute the scheduled program on the simulator.

        Returns the measured run; callers compare its wall time against
        the deadline and its energy against the prediction.
        """
        initial = schedule.initial_mode
        return self.machine.run(
            cfg,
            inputs=inputs,
            registers=registers,
            schedule=schedule.assignment,
            initial_mode=initial if initial is not None else len(self.machine.mode_table) - 1,
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
            Energy is non-increasing along the curve (asserted cheap here;
            tested properly in the suite).
        """
        fractions = fractions if fractions is not None else [i / 10 for i in range(11)]
        modes = sorted(profile.wall_time_s)
        t_fast = profile.wall_time_s[modes[-1]]
        t_slow = profile.wall_time_s[modes[0]]
        curve: list[tuple[float, float]] = []
        for frac in sorted(fractions):
            deadline = t_fast + frac * (t_slow - t_fast)
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
        num_modes = len(self.machine.mode_table)
        for mode in range(num_modes):
            if profile.wall_time_s[mode] <= deadline_s * (1 + 1e-9):
                return mode, profile.cpu_energy_nj[mode]
        raise ScheduleError(
            f"deadline {deadline_s:.6g}s infeasible for {profile.name!r}: "
            f"fastest mode needs {profile.wall_time_s[num_modes - 1]:.6g}s"
        )
