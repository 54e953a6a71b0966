"""Differential oracles: independent implementations must agree.

Every oracle here, in :mod:`repro.verify.metamorphic` and in
:mod:`repro.taskgraph.oracles` returns an :class:`OracleResult` instead
of raising, and every fuzz campaign collects them into one
:class:`FuzzReport`, so a failure is reported with full context and
never stops the checks after it.  The comparisons themselves are the
plain checks of :mod:`repro.verify.tolerances`.

* :func:`backends_agree` — the native simplex/branch-and-bound stack and
  scipy's HiGHS must produce the same optimal objective, on both the LP
  relaxation and the full MILP (the two code paths share nothing but the
  matrices);
* :func:`simulation_matches_prediction` — executing the scheduled
  program on the cycle-level simulator must reproduce the MILP's
  predicted energy within tolerance and meet the deadline;
* :func:`schedule_replay_matches_objective` — replaying the profiled
  counts under the extracted schedule (pure profile arithmetic) must
  reproduce the solver's objective;
* :func:`canonical_price_matches_solver` — the schedule's canonical price
  (its integer assignment priced exactly, which is what results rows
  carry) equals the objective the solver reported, within the
  certificate tolerance;
* :func:`canonical_price_matches_replay` — the canonical price equals
  :meth:`~repro.core.milp.schedule.DVSSchedule.predict`, an independent
  replay of the profiled edge and path counts;
* :func:`analytical_bound_dominates` — the Section 3 analytical model is
  an upper bound: no MILP result may save more energy than it predicts
  (beyond the paper's own rounding allowance);
* :func:`continuous_dominance` — the exact continuous-voltage optimum
  (:mod:`repro.core.continuous`) sandwiches the discrete one:
  ``continuous lower bound <= MILP optimum <= continuous round-up``;
* :func:`never_worse_than_single_mode` — the MILP must never lose to the
  best single mode meeting the deadline (that mode is a feasible MILP
  point);
* :func:`fastpath_matches_reference` — the accelerated simulator
  (:mod:`repro.perf`) must be *bit-identical* to the reference
  interpreter on the same run, down to profile dict ordering and the
  final memory image, and so must the timing replay of its recording at
  every mode and under a schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.analytical import savings_ratio_discrete
from repro.core.analytical.params import ProgramParams
from repro.core.milp.formulation import MilpFormulation
from repro.core.scheduler import DVSOptimizer, OptimizationOutcome
from repro.errors import ScheduleError
from repro.ir.cfg import CFG
from repro.simulator.dvs import ModeTable
from repro.verify import tolerances


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one oracle evaluation."""

    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"{'ok  ' if self.ok else 'FAIL'} {self.name}: {self.detail}"


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign (programs, LPs, continuous, taskgraph).

    ``failures`` holds each failed :class:`OracleResult`, or for the
    program campaign a :class:`~repro.verify.fuzz.FuzzFailure` carrying
    its minimized reproducer; both render with ``str``.
    """

    runs: int = 0
    checks: int = 0
    failures: list = field(default_factory=list)
    elapsed_s: float = 0.0
    campaign: str = "fuzz"
    cases: str = "programs"

    def record(self, result: OracleResult) -> None:
        """Count one check and keep it if it failed."""
        self.checks += 1
        if not result.ok:
            self.failures.append(result)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def summary(self) -> str:
        verdict = "all oracles passed" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"{self.campaign}: {self.runs} {self.cases}, {self.checks} oracle "
            f"checks, {verdict} in {self.elapsed_s:.1f}s"
        )


def _passed(name: str, detail: str) -> OracleResult:
    return OracleResult(name, True, detail)


def _failed(name: str, detail: str) -> OracleResult:
    return OracleResult(name, False, detail)


def _scipy_available() -> bool:
    try:
        import scipy  # noqa: F401

        return True
    except ImportError:  # pragma: no cover - CI always has scipy
        return False


def backends_agree(
    formulation: MilpFormulation,
    rel_tol: float = tolerances.BACKEND_REL_TOL,
    check_milp: bool = True,
) -> OracleResult:
    """Native and scipy backends agree on the same model.

    Compares the LP-relaxation optima and (optionally, it is the
    expensive half) the full MILP optima.  Skips cleanly when scipy is
    not importable — there is nothing to differ against.
    """
    name = "backends-agree"
    if not _scipy_available():  # pragma: no cover - CI always has scipy
        return _passed(name, "scipy unavailable; differential check skipped")

    native_lp = formulation.model.solve(backend="native", relax=True)
    scipy_lp = formulation.model.solve(backend="scipy", relax=True)
    if native_lp.status is not scipy_lp.status:
        return _failed(
            name,
            f"LP relaxation status differs: native {native_lp.status.value} "
            f"vs scipy {scipy_lp.status.value}",
        )
    if native_lp.ok and not tolerances.close(
        native_lp.objective, scipy_lp.objective, rel_tol
    ):
        return _failed(
            name,
            f"LP relaxation optimum differs: native {native_lp.objective:.9g} "
            f"vs scipy {scipy_lp.objective:.9g}",
        )

    if check_milp:
        native = formulation.model.solve(backend="native")
        scipy_sol = formulation.model.solve(backend="scipy")
        if native.status is not scipy_sol.status:
            return _failed(
                name,
                f"MILP status differs: native {native.status.value} "
                f"vs scipy {scipy_sol.status.value}",
            )
        if native.ok and not tolerances.close(
            native.objective, scipy_sol.objective, rel_tol
        ):
            return _failed(
                name,
                f"MILP optimum differs: native {native.objective:.9g} "
                f"vs scipy {scipy_sol.objective:.9g}",
            )
        if native.ok and not tolerances.close(
            native_lp.objective,
            native.objective,
            rel_tol,
            abs_tol=abs(native.objective) * rel_tol,
        ) and native_lp.objective > native.objective * (1 + rel_tol):
            return _failed(
                name,
                f"LP relaxation {native_lp.objective:.9g} exceeds the MILP "
                f"optimum {native.objective:.9g} (relaxations lower-bound)",
            )
    return _passed(name, "native and scipy agree on LP relaxation and MILP")


def simulation_matches_prediction(
    optimizer: DVSOptimizer,
    cfg: CFG,
    outcome: OptimizationOutcome,
    inputs: dict[str, list] | None = None,
    registers: dict[str, float] | None = None,
    energy_rel_tol: float = tolerances.ENERGY_PREDICTION_REL_TOL,
    deadline_rel_slack: float = tolerances.DEADLINE_REL_SLACK,
) -> OracleResult:
    """The simulator reproduces the MILP's energy prediction and deadline."""
    name = "simulation-matches-prediction"
    run = optimizer.verify(cfg, outcome.schedule, inputs=inputs, registers=registers)
    deadline = outcome.formulation.deadline_s
    if not tolerances.deadline_met(run.wall_time_s, deadline, deadline_rel_slack):
        return _failed(
            name,
            f"simulated time {run.wall_time_s:.6g}s misses deadline {deadline:.6g}s",
        )
    predicted = outcome.predicted_energy_nj
    error = tolerances.rel_err(run.cpu_energy_nj, predicted)
    if not tolerances.energy_matches(run.cpu_energy_nj, predicted, energy_rel_tol):
        return _failed(
            name,
            f"simulated energy {run.cpu_energy_nj:.6g} nJ vs predicted "
            f"{predicted:.6g} nJ (rel err {error:.2e} > {energy_rel_tol:.0e})",
        )
    if run.return_value != outcome.profile.return_value:
        return _failed(
            name,
            f"scheduled run returned {run.return_value} but the profiled "
            f"program returned {outcome.profile.return_value}",
        )
    return _passed(
        name,
        f"energy rel err {error:.2e}, time {run.wall_time_s:.6g}s "
        f"within deadline {deadline:.6g}s",
    )


def schedule_replay_matches_objective(
    optimizer: DVSOptimizer,
    cfg: CFG,
    outcome: OptimizationOutcome,
    rel_tol: float = tolerances.OBJECTIVE_REL_TOL,
) -> OracleResult:
    """Profile replay of the schedule reproduces the solver's objective.

    This is pure dictionary arithmetic over the profile — a third,
    solver-free derivation of the objective (the certificate recomputes
    from the solution *vector*; this recomputes from the decoded
    *schedule*).  Hoisting must not change the value.
    """
    from repro.verify.schedule_check import check_schedule

    name = "schedule-replay-matches-objective"
    report = check_schedule(
        outcome.schedule,
        cfg=cfg,
        profile=outcome.profile,
        mode_table=optimizer.machine.mode_table,
        transition_model=optimizer.machine.transition_model,
        deadline_s=outcome.formulation.deadline_s,
    )
    if not report.ok:
        return _failed(name, f"schedule check failed first: {report.issues[0]}")
    energy, duration = report.replayed_energy_nj, report.replayed_time_s
    if not tolerances.objective_matches(energy, outcome.predicted_energy_nj,
                                        rel_tol):
        return _failed(
            name,
            f"replayed energy {energy:.9g} nJ != objective "
            f"{outcome.predicted_energy_nj:.9g} nJ",
        )
    deadline = outcome.formulation.deadline_s
    if not tolerances.deadline_met(duration, deadline):
        return _failed(
            name,
            f"replayed time {duration:.6g}s exceeds deadline {deadline:.6g}s",
        )
    return _passed(name, f"replayed energy matches objective ({energy:.6g} nJ)")


def canonical_price_matches_solver(
    outcome: OptimizationOutcome,
    rel_tol: float = tolerances.OBJECTIVE_REL_TOL,
) -> OracleResult:
    """The canonical energy reproduces the solver's reported objective.

    Two-sided, within the certificate's objective tolerance.  Only the
    energy is compared: the transition time auxiliaries carry no cost,
    so a solver may leave them above their implied values and its
    deadline row is not a price (the replay oracle checks the time).
    Vacuous for tiers without a solver point.
    """
    name = "canonical-price-matches-solver"
    solution = outcome.solution
    if solution.x.size == 0:
        return _passed(name, f"no solver point ({solution.backend}); skipped")
    error = tolerances.rel_err(outcome.predicted_energy_nj, solution.objective)
    if not tolerances.objective_matches(outcome.predicted_energy_nj,
                                        solution.objective, rel_tol):
        return _failed(
            name,
            f"canonical price {outcome.predicted_energy_nj!r} nJ vs solver "
            f"objective {solution.objective!r} nJ (rel err {error:.2e})",
        )
    return _passed(name, f"canonical price within {error:.1e} of the "
                         f"{solution.backend} objective")


def canonical_price_matches_replay(
    optimizer: DVSOptimizer,
    outcome: OptimizationOutcome,
    rel_tol: float = tolerances.OBJECTIVE_REL_TOL,
) -> OracleResult:
    """The canonical price equals the schedule's path-count replay.

    :meth:`DVSSchedule.predict` walks the profile's edge and path counts
    under the decoded (unhoisted) assignment and shares no code with the
    formulation.  With filtering off the two price the same sum; filtered
    edges share their representative's variables, so ties change nothing
    either.  Two-sided on energy and time.
    """
    from repro.core.milp.transition import TransitionCosts

    name = "canonical-price-matches-replay"
    if outcome.solution.x.size == 0:
        return _passed(name, f"no solver point ({outcome.solution.backend}); "
                             "skipped")
    schedule = outcome.formulation.extract_schedule(
        outcome.solution, allow_incumbent=True)
    machine = optimizer.machine
    energy, duration = schedule.predict(
        outcome.profile, machine.mode_table,
        TransitionCosts.from_model(machine.transition_model))
    if not tolerances.objective_matches(outcome.predicted_energy_nj, energy,
                                        rel_tol):
        return _failed(
            name,
            f"canonical price {outcome.predicted_energy_nj!r} nJ vs replay "
            f"{energy!r} nJ",
        )
    if abs(outcome.predicted_time_s - duration) > rel_tol * duration:
        return _failed(
            name,
            f"canonical time {outcome.predicted_time_s!r}s vs replay "
            f"{duration!r}s",
        )
    return _passed(name, f"replay reproduces {energy:.6g} nJ, {duration:.6g}s")


def analytical_bound_dominates(
    params: ProgramParams,
    deadline_s: float,
    mode_table: ModeTable,
    milp_savings: float,
    slack: float = tolerances.BOUND_DOMINANCE_SLACK,
    y_samples: int = 120,
) -> OracleResult:
    """The Section 3 discrete bound upper-bounds any achieved MILP savings."""
    name = "analytical-bound-dominates"
    bound = savings_ratio_discrete(params, deadline_s, mode_table, y_samples=y_samples)
    if math.isnan(bound):
        return _passed(name, "deadline outside the analytical model's regime; skipped")
    if bound + slack < milp_savings:
        return _failed(
            name,
            f"MILP saved {milp_savings:.1%} but the analytical bound is "
            f"{bound:.1%} (+{slack:.0%} slack)",
        )
    return _passed(name, f"bound {bound:.1%} >= MILP {milp_savings:.1%} - slack")


def continuous_dominance(
    optimizer: DVSOptimizer,
    outcome: OptimizationOutcome,
    rel_tol: float = tolerances.CONTINUOUS_DOMINANCE_REL_TOL,
) -> OracleResult:
    """The continuous relaxation sandwiches the discrete optimum.

    Checks the energy chain ``continuous lower bound <= MILP optimum <=
    continuous round-up`` on the outcome's own profile and deadline.
    The left inequality holds because any discrete schedule induces a
    feasible point of the continuous problem with no greater energy (see
    :mod:`repro.core.continuous`); the right because the round-up is a
    feasible point of the exact discrete model.  A violation on either
    side means the engine, the job mapping, or the MILP is wrong.
    """
    from repro.core.continuous import continuous_bound, round_up_schedule

    name = "continuous-dominance"
    profile = outcome.profile
    deadline = outcome.formulation.deadline_s
    mode_table = optimizer.machine.mode_table
    try:
        bound = continuous_bound(profile, mode_table, deadline)
    except ScheduleError as error:
        return _passed(name, f"continuous bound unavailable ({error}); skipped")
    milp_energy = outcome.predicted_energy_nj
    if not tolerances.at_most(bound.energy_nj, milp_energy, rel_tol):
        return _failed(
            name,
            f"continuous lower bound {bound.energy_nj:.9g} nJ exceeds the "
            f"discrete optimum {milp_energy:.9g} nJ",
        )
    if not outcome.solution.ok:
        # A degraded incumbent is feasible but not proven optimal, so the
        # round-up may legitimately beat it; only the lower bound applies.
        return _passed(
            name,
            f"lower bound {bound.energy_nj:.6g} <= incumbent "
            f"{milp_energy:.6g} nJ (upper side skipped: unproven incumbent)",
        )
    rounded = round_up_schedule(
        profile, mode_table, deadline, bound.speeds,
        optimizer.machine.transition_model, outcome.filter_result,
    )
    if rounded is None:
        return _failed(
            name,
            "round-up found no feasible schedule although the MILP did",
        )
    if not tolerances.at_most(milp_energy, rounded.energy_nj, rel_tol):
        return _failed(
            name,
            f"round-up energy {rounded.energy_nj:.9g} nJ undercuts the "
            f"proven optimum {milp_energy:.9g} nJ",
        )
    return _passed(
        name,
        f"{bound.energy_nj:.6g} <= {milp_energy:.6g} <= "
        f"{rounded.energy_nj:.6g} nJ",
    )


def never_worse_than_single_mode(
    optimizer: DVSOptimizer,
    outcome: OptimizationOutcome,
    rel_tol: float = tolerances.SINGLE_MODE_ENERGY_REL_TOL,
) -> OracleResult:
    """The MILP optimum never exceeds the best-single-mode energy."""
    name = "never-worse-than-single-mode"
    deadline = outcome.formulation.deadline_s
    try:
        mode, baseline = optimizer.best_single_mode(outcome.profile, deadline)
    except ScheduleError:
        return _passed(name, "no feasible single mode; oracle vacuous")
    if not tolerances.at_most(outcome.predicted_energy_nj, baseline, rel_tol):
        return _failed(
            name,
            f"MILP energy {outcome.predicted_energy_nj:.6g} nJ exceeds single-mode "
            f"baseline {baseline:.6g} nJ (mode {mode})",
        )
    return _passed(
        name,
        f"MILP {outcome.predicted_energy_nj:.6g} nJ <= single mode {mode} "
        f"at {baseline:.6g} nJ",
    )


def fastpath_matches_reference(
    machine,
    cfg: CFG,
    inputs: dict[str, list] | None = None,
    registers: dict[str, float] | None = None,
    mode: int | None = None,
    schedule: dict | None = None,
    initial_mode: int | None = None,
) -> OracleResult:
    """The accelerated simulator is bit-identical to the reference.

    Runs the same (program, inputs, mode/schedule) point on copies of
    ``machine`` with the fast path on and off and compares a *total* fingerprint of
    both results: every RunResult field, every per-block statistic, the
    edge/path profile including dict iteration order (serialization
    preserves it), and the final memory image.  Any divergence — even
    one ulp of energy or a reordered profile entry — fails the oracle.

    The fast run also records its execution stream.  At a fixed mode the
    timing replay of that stream at *every* mode of the table must match
    the reference run at that mode the same way (the profiler derives
    all but one mode from such replays); under a schedule the replay of
    the stream under that schedule must match the reference scheduled
    run (the pipeline's ``simulate`` task is such a replay).
    """
    from repro.perf.bench import result_fingerprint
    from repro.simulator.machine import ExecutionStream, Machine

    name = "fastpath-matches-reference"
    parts = (machine.config, machine.mode_table, machine.transition_model)
    fast_machine = Machine(*parts)
    slow_machine = Machine(*parts, fastpath=False)
    kwargs = dict(inputs=inputs, registers=registers, mode=mode,
                  schedule=schedule, initial_mode=initial_mode)
    stream = ExecutionStream()
    fast = fast_machine.run(cfg, record=stream, **kwargs)
    stats = dict(fast_machine.last_fastpath_stats)
    reference = slow_machine.run(cfg, **kwargs)
    pairs = [("fast", fast, reference)]
    if mode is not None:
        for m in range(len(machine.mode_table)):
            ref_m = reference if m == mode else slow_machine.run(
                cfg, inputs=inputs, registers=registers, mode=m)
            pairs.append((f"replay at mode {m}",
                          fast_machine.replay(stream, m), ref_m))
    else:
        pairs.append(("scheduled replay",
                      fast_machine.replay(stream, schedule=schedule,
                                          initial_mode=initial_mode),
                      reference))
    for what, got, want in pairs:
        if result_fingerprint(got) != result_fingerprint(want):
            return _failed(name, f"{what}: {_first_divergence(got, want)}")
    replays = (f", {len(pairs) - 1} replayed modes" if mode is not None
               else f", scheduled replay with {reference.mode_transitions} "
                    f"transitions")
    return _passed(
        name,
        f"bit-identical ({fast.instructions} instructions, "
        f"{stats.get('fast_blocks', 0)} fast blocks, "
        f"{stats.get('loop_iterations', 0)} fast-forwarded iterations"
        f"{replays})",
    )


def _first_divergence(got, want) -> str:
    """The first RunResult field that differs, to make reports actionable."""
    import dataclasses as _dc

    for field in _dc.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "memory":
            a = None if a is None else a.cells
            b = None if b is None else b.cells
        if repr(a) != repr(b):
            return (f"field {field.name!r} diverged: got={a!r:.120s} "
                    f"reference={b!r:.120s}")
    return "results diverged (fingerprint mismatch)"
