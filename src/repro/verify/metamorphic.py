"""Metamorphic oracles: known-direction transformations of the problem.

Each check perturbs the optimization problem in a way whose effect on
the optimum is provable, then asserts the pipeline respects it:

* :func:`deadline_monotonicity` — loosening the deadline can only shrink
  (never grow) the optimal energy: every schedule feasible at a tight
  deadline stays feasible at a looser one;
* :func:`mode_addition_monotonicity` — adding an operating point to the
  mode table can only shrink the optimal energy: old schedules embed
  unchanged into the larger table;
* :func:`filtering_within_threshold` — Section 5.2 edge filtering only
  *restricts* the feasible set (energy can't drop) and by construction
  ties away at most the threshold fraction of total energy, so the
  optimal energy may grow by at most that share;
* :func:`noop_passes_preserve` — running copy propagation and DCE on an
  already-optimized ("clean") CFG is a no-op, so the profile counts and
  the MILP schedule must come out identical.

All functions return :class:`~repro.verify.oracles.OracleResult` rather
than raising, so the fuzz driver reports them uniformly with the
differential oracles.
"""

from __future__ import annotations

from repro.core.scheduler import DVSOptimizer
from repro.errors import ReproError, ScheduleError
from repro.ir.cfg import CFG
from repro.ir.passes import eliminate_dead_code, optimize as run_passes, propagate_copies
from repro.lang import compile_program
from repro.profiling.profile_data import ProfileData
from repro.simulator.dvs import ModeTable, OperatingPoint
from repro.simulator.machine import Machine
from repro.verify import tolerances
from repro.verify.oracles import OracleResult


def deadline_monotonicity(
    optimizer: DVSOptimizer,
    cfg: CFG,
    profile: ProfileData,
    deadlines: list[float],
    rel_tol: float = tolerances.OBJECTIVE_REL_TOL,
) -> OracleResult:
    """Optimal energy is non-increasing as the deadline loosens."""
    name = "deadline-monotonicity"
    points: list[tuple[float, float]] = []
    for deadline in sorted(deadlines):
        try:
            outcome = optimizer.optimize(cfg, deadline, profile=profile)
        except ScheduleError:
            continue  # infeasible deadline: nothing to compare
        points.append((deadline, outcome.predicted_energy_nj))
    rise = tolerances.first_increase([e for _, e in points], rel_tol)
    if rise is not None:
        (d_tight, e_tight), (d_loose, e_loose) = points[rise:rise + 2]
        return OracleResult(
            name,
            False,
            f"loosening {d_tight:.6g}s -> {d_loose:.6g}s RAISED energy "
            f"{e_tight:.6g} -> {e_loose:.6g} nJ",
        )
    return OracleResult(
        name, True, f"energy non-increasing over {len(points)} feasible deadlines"
    )


def widen_mode_table(table: ModeTable) -> ModeTable:
    """A strictly larger table: the original points plus one midpoint.

    The inserted operating point sits halfway (voltage and frequency)
    between the two slowest points, preserving the table's monotone
    voltage/frequency ordering.  Because the original points survive
    verbatim, any schedule over the old table embeds into the new one —
    the premise of the mode-addition metamorphic relation.
    """
    if len(table) < 2:
        raise ReproError("need at least two modes to widen a table")
    lo, hi = table[0], table[1]
    mid = OperatingPoint(
        frequency_hz=(lo.frequency_hz + hi.frequency_hz) / 2.0,
        voltage=(lo.voltage + hi.voltage) / 2.0,
    )
    return ModeTable([*table, mid], name=f"{table.name}+mid")


def mode_addition_monotonicity(
    machine: Machine,
    cfg: CFG,
    deadline_s: float,
    inputs: dict[str, list] | None = None,
    registers: dict[str, float] | None = None,
    rel_tol: float = tolerances.OBJECTIVE_REL_TOL,
) -> OracleResult:
    """Adding a voltage mode never increases the optimal energy."""
    name = "mode-addition-monotonicity"
    base_optimizer = DVSOptimizer(machine)
    wide_machine = Machine(
        machine.config, widen_mode_table(machine.mode_table), machine.transition_model
    )
    wide_optimizer = DVSOptimizer(wide_machine)
    try:
        base = base_optimizer.optimize(
            cfg, deadline_s, inputs=inputs, registers=registers
        )
        wide = wide_optimizer.optimize(
            cfg, deadline_s, inputs=inputs, registers=registers
        )
    except ScheduleError as error:
        return OracleResult(name, True, f"deadline infeasible; skipped ({error})")
    if not tolerances.at_most(wide.predicted_energy_nj,
                              base.predicted_energy_nj, rel_tol):
        return OracleResult(
            name,
            False,
            f"adding a mode RAISED optimal energy "
            f"{base.predicted_energy_nj:.6g} -> {wide.predicted_energy_nj:.6g} nJ",
        )
    return OracleResult(
        name,
        True,
        f"{len(wide_machine.mode_table)}-mode optimum "
        f"{wide.predicted_energy_nj:.6g} nJ <= {len(machine.mode_table)}-mode "
        f"{base.predicted_energy_nj:.6g} nJ",
    )


def filtering_within_threshold(
    optimizer: DVSOptimizer,
    cfg: CFG,
    profile: ProfileData,
    deadline_s: float,
    rel_tol: float = tolerances.OBJECTIVE_REL_TOL,
) -> OracleResult:
    """Edge filtering costs at most its energy threshold, and never gains.

    Filtering only ties variables together — a pure restriction of the
    feasible set — so the filtered optimum cannot be *lower*.  The tied
    tail carries at most ``filter_threshold`` of total energy, bounding
    how much it can be *higher*.
    """
    name = "filtering-within-threshold"
    threshold = optimizer.filter_threshold
    try:
        unfiltered = optimizer.optimize(
            cfg, deadline_s, profile=profile, use_filtering=False
        )
        filtered = optimizer.optimize(
            cfg, deadline_s, profile=profile, use_filtering=True
        )
    except ScheduleError as error:
        return OracleResult(name, True, f"deadline infeasible; skipped ({error})")
    e_free, e_tied = unfiltered.predicted_energy_nj, filtered.predicted_energy_nj
    if not tolerances.at_most(e_free, e_tied, rel_tol):
        return OracleResult(
            name,
            False,
            f"filtering LOWERED the optimum {e_free:.6g} -> {e_tied:.6g} nJ "
            f"(a restriction cannot improve)",
        )
    if not tolerances.at_most(
            e_tied, e_free, threshold + tolerances.FILTERING_REL_MARGIN):
        return OracleResult(
            name,
            False,
            f"filtering cost {(e_tied / e_free - 1):.2%} > threshold "
            f"{threshold:.0%} ({e_free:.6g} -> {e_tied:.6g} nJ)",
        )
    return OracleResult(
        name,
        True,
        f"filtering cost {(e_tied / e_free - 1):.3%} within the "
        f"{threshold:.0%} threshold",
    )


def noop_passes_preserve(
    source: str,
    optimizer: DVSOptimizer,
    deadline_frac: float = 0.5,
    inputs: dict[str, list] | None = None,
    registers: dict[str, float] | None = None,
) -> OracleResult:
    """Copyprop/DCE on already-clean code preserve profile and schedule.

    The program is compiled and fully optimized (the "clean" form); a
    second copy additionally re-runs copy propagation and DCE, which
    must find nothing.  Both copies are profiled and scheduled — the
    counts and the mode assignment must be identical.
    """
    name = "noop-passes-preserve"
    clean = compile_program(source, "meta-clean")
    run_passes(clean)
    rerun = compile_program(source, "meta-rerun")
    run_passes(rerun)
    propagate_copies(rerun)
    eliminate_dead_code(rerun)

    profile_clean = optimizer.profile(clean, inputs=inputs, registers=registers)
    profile_rerun = optimizer.profile(rerun, inputs=inputs, registers=registers)

    def counts(profile: ProfileData):
        return (
            dict(profile.block_counts),
            dict(profile.edge_counts),
            dict(profile.path_counts),
        )

    if counts(profile_clean) != counts(profile_rerun):
        return OracleResult(
            name, False, "re-running copyprop/dce on clean code changed the profile"
        )

    deadline = profile_clean.deadline_at(deadline_frac)
    try:
        outcome_clean = optimizer.optimize(clean, deadline, profile=profile_clean)
        outcome_rerun = optimizer.optimize(rerun, deadline, profile=profile_rerun)
    except ScheduleError as error:
        return OracleResult(name, True, f"deadline infeasible; skipped ({error})")
    if not tolerances.objective_matches(
        outcome_rerun.predicted_energy_nj, outcome_clean.predicted_energy_nj
    ):
        return OracleResult(
            name,
            False,
            f"no-op passes changed the optimal energy "
            f"{outcome_clean.predicted_energy_nj:.6g} -> "
            f"{outcome_rerun.predicted_energy_nj:.6g} nJ",
        )
    if outcome_clean.schedule.assignment != outcome_rerun.schedule.assignment:
        return OracleResult(
            name, False, "no-op passes changed the extracted schedule"
        )
    return OracleResult(name, True, "profile, energy and schedule preserved")
