"""Shared numeric tolerances, and the one check per verified property.

All float comparisons made by the verification layer (and by the CLI
when it decides an exit code) come from this module: each tolerance is
stated once, and the rows' ``verify`` tasks, the oracles and the bench
documents all compare through the checks at the bottom.  Those are
pure functions over numbers returning bools (a row's ``verify`` runs on
every served request); they read their default tolerance when called,
so a test may patch a constant here.  The values are calibrated against
the repository's own numerics:

* the native simplex works at ~1e-9 absolute residuals; HiGHS is
  comparable, so certificate feasibility checks allow ``FEAS_ABS_TOL``
  plus a relative term for badly scaled rows;
* the simulator reproduces the MILP's predicted energy to ~1e-5
  relative on the workload suite (per-visit block energies are exact;
  the residue is count-weighted rounding), so the simulation oracle
  uses ``ENERGY_PREDICTION_REL_TOL`` = 1e-3 with margin to spare;
* scheduled runs may finish *early* but never late beyond
  ``DEADLINE_REL_SLACK`` (the historical 1e-4 slack of the test suite);
  a taskgraph schedule's makespan is an exact replay of the solver's
  own numbers, so it gets only ``REPLAY_DEADLINE_REL_SLACK`` (1e-9);
* the analytical Section 3 bound dominates MILP savings up to
  ``BOUND_DOMINANCE_SLACK`` — the paper itself reports one rounding
  inversion, hence a 2-point allowance.
"""

from __future__ import annotations

#: Absolute slack allowed on a constraint residual (solver feasibility).
FEAS_ABS_TOL = 1e-9

#: Relative slack on a constraint residual, scaled by the row magnitude.
#: HiGHS accepts MIP solutions up to its 1e-6 feasibility tolerance, so a
#: certificate demanding more would reject solutions the backend is
#: entitled to return (rows are scaled to O(1) rhs at build time).
FEAS_REL_TOL = 1e-6

#: How far a "binary" may sit from an integer before it is rejected.
INTEGRALITY_TOL = 1e-6

#: Relative mismatch allowed between a reported objective and its
#: recomputation from the solution vector.
OBJECTIVE_REL_TOL = 1e-6

#: Relative mismatch allowed between simulated energy and the MILP's
#: predicted energy for the same schedule.
ENERGY_PREDICTION_REL_TOL = 1e-3

#: Relative amount a verified run may exceed its deadline.  A simulated
#: run is cycle-quantized: its wall time is a sum of per-instruction
#: stalls the MILP's per-block model only approximates.
DEADLINE_REL_SLACK = 1e-4

#: Relative amount a replayed taskgraph makespan may exceed its deadline.
#: The replay recomputes the schedule from the same task tables the MILP
#: was built on, with no quantization, so only float summation order is
#: forgiven.  Never merge it with ``DEADLINE_REL_SLACK``: on a 5 ms
#: deadline the simulation slack would forgive a 0.5 us miss.
REPLAY_DEADLINE_REL_SLACK = 1e-9

#: Savings points by which the analytical bound may fall short of the
#: MILP result before the dominance oracle fails (paper Section 6.5).
BOUND_DOMINANCE_SLACK = 0.02

#: Relative slack for the continuous-relaxation dominance chain
#: ``continuous lower bound <= MILP optimum <= round-up energy``.  All
#: three are evaluated on the same profiled per-visit numbers, so the
#: chain is exact up to float summation order; 1e-6 is orders of
#: magnitude above the observed residue.
CONTINUOUS_DOMINANCE_REL_TOL = 1e-6

#: Extra relative margin on the Section 5.2 filtering threshold when
#: comparing filtered and unfiltered optimal energies.
FILTERING_REL_MARGIN = 1e-6

#: Relative agreement demanded between two solver backends on the same
#: model (LP relaxations and full MILPs alike).
BACKEND_REL_TOL = 1e-5


def rel_err(value: float, reference: float) -> float:
    """|value - reference| normalized by max(1, |reference|)."""
    return abs(value - reference) / max(1.0, abs(reference))


def close(value: float, reference: float, rel: float, abs_tol: float = 0.0) -> bool:
    """True when ``value`` matches ``reference`` within rel + abs slack."""
    return abs(value - reference) <= abs_tol + rel * max(1.0, abs(reference))


# -- the checks: one per verified property -------------------------------------


def deadline_met(time_s: float, deadline_s: float,
                 slack: float | None = None) -> bool:
    """A run finishes by its deadline, up to ``slack`` relative (default
    ``DEADLINE_REL_SLACK``; an exact replay uses
    :func:`replay_deadline_met`)."""
    slack = DEADLINE_REL_SLACK if slack is None else slack
    return time_s <= deadline_s * (1 + slack)


def replay_deadline_met(makespan_s: float, deadline_s: float) -> bool:
    """An exact taskgraph replay finishes by its deadline, up to
    ``REPLAY_DEADLINE_REL_SLACK``."""
    return deadline_met(makespan_s, deadline_s, REPLAY_DEADLINE_REL_SLACK)


def energy_matches(measured_nj: float, predicted_nj: float,
                   rel: float | None = None) -> bool:
    """Measured energy reproduces the prediction (default tolerance
    ``ENERGY_PREDICTION_REL_TOL``)."""
    rel = ENERGY_PREDICTION_REL_TOL if rel is None else rel
    return rel_err(measured_nj, predicted_nj) <= rel


def objective_matches(value: float, reference: float,
                      rel: float | None = None) -> bool:
    """An objective equals its recomputation, e.g. a replay or a canonical
    price (default tolerance ``OBJECTIVE_REL_TOL``)."""
    return close(value, reference, OBJECTIVE_REL_TOL if rel is None else rel)


def at_most(value: float, limit: float, rel: float | None = None) -> bool:
    """``value <= limit`` up to ``rel`` (default ``OBJECTIVE_REL_TOL``) of
    the limit: an optimum never loses to a feasible point (the greedy
    schedule, the best single mode)."""
    rel = OBJECTIVE_REL_TOL if rel is None else rel
    return value <= limit + rel * max(1.0, abs(limit))


def first_increase(values, rel: float | None = None) -> int | None:
    """The non-increasing check: the first ``i`` where ``values[i + 1]``
    rises above ``values[i]`` (beyond :func:`at_most`), else None."""
    values = list(values)
    for index, (before, after) in enumerate(zip(values, values[1:])):
        if not at_most(after, before, rel):
            return index
    return None


def schedules_identical(assignment, energy_nj: float,
                        other_assignment, other_energy_nj: float) -> bool:
    """Bit-identical answers, with no tolerance: a pruning incumbent may
    skip search work but never move the schedule or its energy."""
    return energy_nj == other_energy_nj and assignment == other_assignment


def taskgraph_checks(makespan_s: float, deadline_s: float, energy_nj: float,
                     objectives, greedy_energy_nj: float,
                     method: str) -> dict[str, bool]:
    """The checks on one taskgraph schedule, shared by the results row,
    the oracles and the bench verdict.

    ``energy_nj`` and ``makespan_s`` are the schedule's replay;
    ``objectives`` the MILP objectives that must equal that energy (none
    on the greedy tier, whose schedule *is* the greedy one and so needs
    no comparison against it).
    """
    return {
        "deadline_met": replay_deadline_met(makespan_s, deadline_s),
        "objective_matches": all(objective_matches(value, energy_nj)
                                 for value in objectives),
        "beats_greedy": method == "greedy"
        or at_most(energy_nj, greedy_energy_nj),
    }
