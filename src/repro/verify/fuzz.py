"""Pipeline fuzzing: seeded random programs through every oracle.

:func:`verify_program` pushes one program through the complete stack —
compiler, interpreter, simulator, profiler, MILP, schedule — evaluating
every differential and metamorphic oracle along the way.  :func:`fuzz`
drives it over a stream of seeded random programs (shared generator with
the hypothesis suite, :mod:`repro.verify.generators`) and, on the first
failure, greedily minimizes the reproducer by deleting top-level
statements while the same oracle still fails.

The CLI front ends are ``repro fuzz`` (random programs) and
``repro verify`` (one workload, same oracle battery).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.scheduler import DVSOptimizer
from repro import observe
from repro.errors import ReproError, VerificationError
from repro.ir import interpret, validate_cfg
from repro.ir.passes import optimize as run_passes
from repro.lang import compile_program
from repro.simulator import SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.simulator.machine import Machine
from repro.verify import metamorphic, oracles, tolerances
from repro.verify.certificate import verify_certificate
from repro.verify.generators import (
    LP_PROFILES,
    GeneratedProgram,
    build_source,
    generate_lp,
    generate_program,
)
from repro.verify.oracles import FuzzReport, OracleResult
from repro.verify.schedule_check import check_schedule


@dataclass
class FuzzFailure:
    """First failing oracle for one generated program."""

    run_index: int
    seed: int
    oracle: str
    detail: str
    source: str
    minimized_source: str

    def __str__(self) -> str:
        return (
            f"run {self.run_index} (seed {self.seed}) failed oracle "
            f"{self.oracle!r}: {self.detail}\n"
            f"--- minimized reproducer ---\n{self.minimized_source}"
        )


def _default_machine() -> Machine:
    return Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())


def verify_program(
    source: str,
    inputs: dict[str, list] | None,
    machine: Machine | None = None,
    registers: dict[str, float] | None = None,
    deadline_fracs: tuple[float, ...] = (0.35, 0.7),
    check_backends: bool = True,
    check_metamorphic: bool = True,
    only_oracle: str | None = None,
) -> list[OracleResult]:
    """Run the full oracle battery over one program.

    Args:
        source: kernel-language source text.
        inputs, registers: program input.
        machine: simulation target (default: XScale-3 with the paper's
            typical transition cost).
        deadline_fracs: deadline positions in the fast->slow range to
            optimize and verify at.
        check_backends: include the (slower) solver-differential oracle.
        check_metamorphic: include the metamorphic battery.
        only_oracle: evaluate just this oracle name where separable (the
            minimizer's fast path); structural prerequisites still run.

    Returns:
        one :class:`OracleResult` per evaluated oracle, failures included.
        A crash anywhere in the pipeline is itself reported as a failed
        ``pipeline-crash`` check, never raised.
    """
    machine = machine or _default_machine()
    results: list[OracleResult] = []

    def record(name: str, ok: bool, detail: str) -> bool:
        if only_oracle is None or name == only_oracle or not ok:
            results.append(OracleResult(name, ok, detail))
        return ok

    # -- 1. frontend + reference semantics -----------------------------------
    try:
        cfg = compile_program(source, "verify")
        validate_cfg(cfg)
    except ReproError as error:
        record("compiles", False, str(error))
        return results
    record("compiles", True, f"{len(cfg.blocks)} blocks")

    try:
        expected = interpret(cfg, inputs=inputs, registers=registers).return_value
    except ReproError as error:
        record("interpreter-runs", False, str(error))
        return results

    try:
        for mode in (0, len(machine.mode_table) - 1):
            got = machine.run(
                cfg, inputs=inputs, registers=registers, mode=mode
            ).return_value
            if got != expected:
                record(
                    "simulator-matches-interpreter",
                    False,
                    f"mode {mode} returned {got}, interpreter {expected}",
                )
                return results
        record("simulator-matches-interpreter", True, f"return value {expected}")

        oracle = oracles.fastpath_matches_reference(
            machine, cfg, inputs=inputs, registers=registers,
            mode=len(machine.mode_table) - 1,
        )
        if not record(oracle.name, oracle.ok, oracle.detail):
            return results

        tuned = compile_program(source, "verify-tuned")
        run_passes(tuned)
        tuned_value = interpret(tuned, inputs=inputs, registers=registers).return_value
        if not record(
            "passes-preserve-semantics",
            tuned_value == expected,
            f"optimized return value {tuned_value} vs {expected}",
        ):
            return results

        # -- 2. profile conservation laws ------------------------------------
        optimizer = DVSOptimizer(machine)
        profile = optimizer.profile(cfg, inputs=inputs, registers=registers)
        profile.validate()
        incoming: dict[str, int] = {}
        for (_, dst), count in profile.edge_counts.items():
            incoming[dst] = incoming.get(dst, 0) + count
        conserved = all(
            incoming.get(label, 0) == count
            for label, count in profile.block_counts.items()
        )
        if not record(
            "profile-conservation",
            conserved,
            "incoming edge counts conserve block counts"
            if conserved
            else "edge counts do not conserve block counts",
        ):
            return results

        # -- 3. optimize + certify + cross-check at each deadline ------------
        deadlines = [profile.deadline_at(frac) for frac in sorted(deadline_fracs)]
        for index, deadline in enumerate(deadlines):
            try:
                outcome = optimizer.optimize(cfg, deadline, profile=profile)
            except VerificationError as error:
                record("certificate", False, str(error))
                return results
            certificate = outcome.certificate
            record(
                "certificate",
                certificate is not None and certificate.ok,
                certificate.summary if certificate else "no certificate attached",
            )

            report = check_schedule(
                outcome.schedule,
                cfg,
                profile,
                machine.mode_table,
                machine.transition_model,
                deadline,
            )
            if not record(
                "schedule-check",
                report.ok,
                report.summary,
            ):
                return results

            if index == 0:
                # The scheduled run exercises the mode-set path (rebinding
                # folded constants); one deadline suffices for coverage.
                oracle = oracles.fastpath_matches_reference(
                    machine, cfg, inputs=inputs, registers=registers,
                    schedule=outcome.schedule.assignment,
                )
                if not record(oracle.name, oracle.ok, oracle.detail):
                    return results

            for oracle in (
                oracles.simulation_matches_prediction(
                    optimizer, cfg, outcome, inputs=inputs, registers=registers
                ),
                oracles.schedule_replay_matches_objective(optimizer, cfg, outcome),
                oracles.canonical_price_matches_solver(outcome),
                oracles.canonical_price_matches_replay(optimizer, outcome),
                oracles.never_worse_than_single_mode(optimizer, outcome),
                oracles.continuous_dominance(optimizer, outcome),
                oracles.analytical_bound_dominates(
                    profile.params,
                    deadline,
                    machine.mode_table,
                    _savings(optimizer, outcome, deadline),
                ),
            ):
                if not record(oracle.name, oracle.ok, oracle.detail):
                    return results

            if check_backends and index == 0:
                oracle = oracles.backends_agree(outcome.formulation)
                if not record(oracle.name, oracle.ok, oracle.detail):
                    return results

        # -- 4. metamorphic battery ------------------------------------------
        if check_metamorphic:
            checks = [
                metamorphic.deadline_monotonicity(optimizer, cfg, profile, deadlines),
                metamorphic.filtering_within_threshold(
                    optimizer, cfg, profile, deadlines[-1]
                ),
                metamorphic.mode_addition_monotonicity(
                    machine, cfg, deadlines[-1], inputs=inputs, registers=registers
                ),
                metamorphic.noop_passes_preserve(
                    source, optimizer, inputs=inputs, registers=registers
                ),
            ]
            for check in checks:
                if not record(check.name, check.ok, check.detail):
                    return results
    except ReproError as error:
        record("pipeline-crash", False, f"{type(error).__name__}: {error}")
    return results


def _savings(optimizer: DVSOptimizer, outcome, deadline: float) -> float:
    try:
        _, baseline = optimizer.best_single_mode(outcome.profile, deadline)
    except ReproError:
        return 0.0
    if baseline <= 0:
        return 0.0
    return max(0.0, 1.0 - outcome.predicted_energy_nj / baseline)


def minimize_reproducer(
    program: GeneratedProgram,
    oracle: str,
    machine: Machine | None = None,
    deadline_fracs: tuple[float, ...] = (0.35, 0.7),
    max_rounds: int = 8,
) -> str:
    """Greedily shrink a failing program while the same oracle still fails.

    Deletes one top-level statement at a time (any subset of the
    generator's top-level statements is still a well-formed program) and
    finally tries zeroing the data array.  Returns the smallest source
    that still fails ``oracle``.
    """

    def still_fails(statements: tuple[str, ...], inputs: dict[str, list]) -> bool:
        try:
            results = verify_program(
                build_source(statements),
                inputs,
                machine=machine,
                deadline_fracs=deadline_fracs,
                only_oracle=oracle,
            )
        except Exception:  # a crash during shrinking is not a reproduction
            return False
        failure = next((r for r in results if not r.ok), None)
        return failure is not None and failure.name == oracle

    statements = program.statements
    inputs = program.inputs
    for _ in range(max_rounds):
        shrunk = False
        for index in range(len(statements) - 1, -1, -1):
            candidate = statements[:index] + statements[index + 1 :]
            if still_fails(candidate, inputs):
                statements = candidate
                shrunk = True
        if not shrunk:
            break
    zeroed = {name: [0] * len(values) for name, values in inputs.items()}
    if zeroed != inputs and still_fails(statements, zeroed):
        inputs = zeroed
    return build_source(statements)


def verify_lp_case(case) -> list[OracleResult]:
    """Differential-test one generated LP/MILP: native against HiGHS.

    Runs the revised simplex (under branch and bound for MILP instances)
    and scipy's HiGHS on the same instance and cross-checks status,
    objective and primal feasibility.  Each backend's point is also
    priced exactly (``c @ x`` with :func:`math.fsum`, the generic-LP
    analogue of the DVS canonical price) and must reproduce the
    objective that backend reported, within the certificate tolerance.

    Returns every check made, passing ones included, each naming the
    instance.
    """
    import math

    import numpy as np

    from repro.solver.branch_bound import solve_milp
    from repro.solver.revised import solve_lp_revised
    from repro.solver.solution import SolveStatus

    tag = f"{case.profile}/s{case.seed}"
    results: list[OracleResult] = []
    kwargs = case.lp_kwargs()

    def check(name: str, ok: bool, detail: str) -> None:
        results.append(OracleResult(name, bool(ok), f"{tag}: {detail}"))

    def check_price(who: str, x, objective: float) -> None:
        price = math.fsum(float(ci) * float(xi)
                          for ci, xi in zip(kwargs["c"], x))
        check("canonical-price-matches-solver",
              tolerances.objective_matches(price, objective),
              f"{who} reported objective {objective!r}, its point prices "
              f"at {price!r}")

    def objectives_agree(native: float, highs: float) -> bool:
        return abs(native - highs) <= 1e-6 * (1 + abs(highs))

    if case.integrality.any():
        rev = solve_milp(integrality=case.integrality, **kwargs)
        if rev.ok:
            check_price("native MILP", rev.x, rev.objective)
        try:
            from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp

            constraints = []
            if kwargs["a_ub"] is not None:
                constraints.append(LinearConstraint(
                    kwargs["a_ub"], -np.inf, kwargs["b_ub"]))
            if kwargs["a_eq"] is not None:
                constraints.append(LinearConstraint(
                    kwargs["a_eq"], kwargs["b_eq"], kwargs["b_eq"]))
            ref = scipy_milp(kwargs["c"], constraints=constraints,
                             bounds=Bounds(case.bounds[:, 0], case.bounds[:, 1]),
                             integrality=case.integrality.astype(int))
            check("backends-agree",
                  rev.ok == (ref.status == 0)
                  and (not rev.ok or objectives_agree(rev.objective, ref.fun)),
                  f"MILP native {rev.status.name} objective {rev.objective!r}, "
                  f"highs status {ref.status} objective {ref.fun!r}")
            if rev.ok and ref.status == 0:
                check_price("HiGHS MILP", ref.x, ref.fun)
        except ImportError:  # pragma: no cover - scipy is a hard dep here
            pass
        return results

    rev, _basis = solve_lp_revised(**kwargs)
    if rev.status is SolveStatus.OPTIMAL:
        check_price("native LP", rev.x, rev.objective)
        # The revised point must be primal feasible in its own right.
        scale = max(1.0, float(np.max(np.abs(kwargs["b_ub"])))
                    if kwargs["b_ub"] is not None else 1.0)
        violated = []
        if kwargs["a_ub"] is not None and np.any(
                kwargs["a_ub"] @ rev.x > kwargs["b_ub"] + 1e-6 * scale):
            violated.append("a_ub")
        if kwargs["a_eq"] is not None and np.any(
                np.abs(kwargs["a_eq"] @ rev.x - kwargs["b_eq"]) > 1e-6 * scale):
            violated.append("a_eq")
        span = case.bounds[:, 1] - case.bounds[:, 0]
        btol = 1e-8 * (1.0 + np.where(np.isfinite(span), np.abs(span), 0.0))
        if np.any(rev.x < case.bounds[:, 0] - btol) or np.any(
                rev.x > case.bounds[:, 1] + btol):
            violated.append("bounds")
        check("primal-feasible", not violated,
              f"revised point violates {', '.join(violated)}" if violated
              else "revised point satisfies every row and bound")
    try:
        from scipy.optimize import linprog

        ref = linprog(kwargs["c"], A_ub=kwargs["a_ub"], b_ub=kwargs["b_ub"],
                      A_eq=kwargs["a_eq"], b_eq=kwargs["b_eq"],
                      bounds=case.bounds, method="highs")
        ref_status = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE,
                      3: SolveStatus.UNBOUNDED}.get(ref.status)
        if ref_status is not None:
            check("backends-agree",
                  ref_status == rev.status
                  and (not rev.ok or objectives_agree(rev.objective, ref.fun)),
                  f"revised {rev.status.name} objective {rev.objective!r}, "
                  f"highs {ref_status.name} objective {ref.fun!r}")
        if ref.status == 0:
            check_price("HiGHS LP", ref.x, ref.fun)
    except ImportError:  # pragma: no cover - scipy is a hard dep here
        pass
    return results


def fuzz_lps(
    runs: int,
    seed: int = 0,
    profiles: tuple[str, ...] = LP_PROFILES,
    on_progress=None,
) -> FuzzReport:
    """Differential-fuzz the native LP core against HiGHS.

    Cycles ``runs`` instances through the torture profiles (degenerate
    vertices, near-singular bases, rank-deficient rows, wide coefficient
    ranges, boxed MILPs); instance ``i`` uses profile ``i % len`` and
    seed ``seed + i``, so any failure reproduces from its index alone.
    """
    start = observe.clock()
    report = FuzzReport(campaign="lp-fuzz", cases="LP instances")
    for index in range(runs):
        profile = profiles[index % len(profiles)]
        case = generate_lp(seed + index, profile)
        report.runs += 1
        for result in verify_lp_case(case):
            report.record(result)
        if on_progress is not None:
            on_progress(index + 1, runs, len(report.failures))
    report.elapsed_s = observe.clock() - start
    return report


def _continuous_checks(machine: Machine, cfg, profile, deadline: float):
    """The continuous engine's checks at one deadline, one at a time (a
    ScheduleError partway keeps the checks already yielded)."""
    from repro.core.continuous import (
        is_feasible_speed_assignment,
        jobs_from_profile,
        optimal_speeds,
    )

    # -- YDS structural invariants --------------------------------------------
    jobs, _, _ = jobs_from_profile(profile, machine.mode_table, deadline)
    sol = optimal_speeds(jobs)
    speeds = [phase.speed_hz for phase in sol.phases]
    yield OracleResult("phase-speeds-nonincreasing",
                       tolerances.first_increase(speeds) is None,
                       f"phase speeds {speeds}")
    hall = not sol.speeds or is_feasible_speed_assignment(jobs, sol.speeds)
    yield OracleResult("hall-feasible", hall,
                       f"optimal speeds {'pass' if hall else 'fail'} the Hall test")

    # -- dominance + injection invariance -------------------------------------
    cold = DVSOptimizer(machine, backend="native")
    outcome = cold.optimize(cfg, deadline, profile=profile)
    yield oracles.continuous_dominance(cold, outcome)
    warm = DVSOptimizer(machine, backend="native",
                        solver_options={"continuous_prune": True})
    pruned = warm.optimize(cfg, deadline, profile=profile)
    yield OracleResult(
        "pruner-identity",
        tolerances.schedules_identical(
            outcome.schedule.assignment, outcome.predicted_energy_nj,
            pruned.schedule.assignment, pruned.predicted_energy_nj),
        f"energy without the pruner {outcome.predicted_energy_nj!r}, "
        f"with it {pruned.predicted_energy_nj!r}")


def fuzz_continuous(
    runs: int,
    seed: int = 0,
    machine: Machine | None = None,
    deadline_fracs: tuple[float, ...] = (0.2, 0.6),
    on_progress=None,
) -> FuzzReport:
    """Fuzz the continuous engine against the MILP on random programs.

    For each seeded program and deadline the campaign checks:

    * the dominance chain ``continuous lower bound <= MILP optimum <=
      round-up`` (:func:`repro.verify.oracles.continuous_dominance`);
    * the YDS structure of the continuous optimum — phase speeds are
      nonincreasing and the per-job speed assignment passes the Hall
      feasibility test;
    * injection invariance — the native branch-and-bound returns a
      bit-identical schedule and objective with the continuous warm
      incumbent on and off (the pruner may only skip work, never change
      the answer).

    Program ``i`` uses seed ``seed + i``, so any failure reproduces from
    its own seed alone.
    """
    from repro.errors import ScheduleError

    machine = machine or _default_machine()
    start = observe.clock()
    report = FuzzReport(campaign="continuous-fuzz")
    for index in range(runs):
        program_seed = seed + index
        tag = f"run {index} (seed {program_seed})"
        program = generate_program(program_seed)
        report.runs += 1
        try:
            cfg = compile_program(program.source, "continuous-fuzz")
            profile = DVSOptimizer(machine, backend="native").profile(
                cfg, inputs=program.inputs)
            deadlines = [profile.deadline_at(frac) for frac in deadline_fracs]
        except ReproError as error:
            report.record(OracleResult("pipeline-crash", False,
                                       f"{tag}: {error}"))
            deadlines = []
        for frac, deadline in zip(deadline_fracs, deadlines):
            where = f"{tag} frac={frac}"
            try:
                for result in _continuous_checks(machine, cfg, profile,
                                                 deadline):
                    report.record(replace(result,
                                          detail=f"{where}: {result.detail}"))
            except ScheduleError:
                # Infeasible or degenerate deadline for this program; the
                # engine refusing is correct behaviour, not a violation.
                report.checks += 1
            except ReproError as error:
                report.record(OracleResult("pipeline-crash", False,
                                           f"{where}: {error}"))
        if on_progress is not None:
            on_progress(index + 1, runs, len(report.failures))
    report.elapsed_s = observe.clock() - start
    return report


def fuzz(
    runs: int,
    seed: int = 0,
    machine: Machine | None = None,
    deadline_fracs: tuple[float, ...] = (0.35, 0.7),
    check_backends: bool = True,
    check_metamorphic: bool = True,
    stop_on_failure: bool = True,
    on_progress=None,
) -> FuzzReport:
    """Fuzz the pipeline with ``runs`` seeded random programs.

    Args:
        runs: number of generated programs.
        seed: base seed; program ``i`` uses ``seed + i``, so any failure
            reproduces from its own seed alone.
        machine: simulation target (default XScale-3).
        deadline_fracs: deadline positions verified per program.
        check_backends, check_metamorphic: oracle-battery switches.
        stop_on_failure: stop at (and minimize) the first failure instead
            of collecting all of them.
        on_progress: optional callback ``(index, runs, failures)`` after
            each program.
    """
    start = observe.clock()
    report = FuzzReport()
    for index in range(runs):
        program_seed = seed + index
        program = generate_program(program_seed)
        results = verify_program(
            program.source,
            program.inputs,
            machine=machine,
            deadline_fracs=deadline_fracs,
            check_backends=check_backends,
            check_metamorphic=check_metamorphic,
        )
        report.runs += 1
        report.checks += len(results)
        failure = next((r for r in results if not r.ok), None)
        if failure is not None:
            minimized = minimize_reproducer(
                program, failure.name, machine=machine, deadline_fracs=deadline_fracs
            )
            report.failures.append(
                FuzzFailure(
                    run_index=index,
                    seed=program_seed,
                    oracle=failure.name,
                    detail=failure.detail,
                    source=program.source,
                    minimized_source=minimized,
                )
            )
            if stop_on_failure:
                break
        if on_progress is not None:
            on_progress(index + 1, runs, len(report.failures))
    report.elapsed_s = observe.clock() - start
    return report
