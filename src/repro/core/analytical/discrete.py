"""Discrete-voltage optimum (paper Section 3.4).

With a discrete level set the optimum is built from the continuous one:

* **compute-bound** and **memory-bound-with-slack** programs use the two
  table levels neighbouring the continuous single optimum ``f_ideal``,
  splitting cycles so the deadline is met exactly (Ishihara-Yasuura);
* **memory-bound** programs need four frequencies: parameterize by ``y``,
  the execution time granted to the N_cache hit cycles; then ``f1* =
  N_cache / y`` and ``f2* = N_dep / (t_dl − t_inv − y)`` each take their
  two neighbours, the leftover overlap cycles (N_ov − N_cache) fill the
  miss window at the lower neighbour first, and ``Emin(y)`` is minimized
  numerically over a grid of ``y`` plus every staircase breakpoint
  (Figure 8).

All energies are in cycle·V² units, consistent with
:mod:`repro.core.analytical.continuous`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analytical.numeric import linspace
from repro.errors import AnalysisError
from repro.core.analytical.params import ProgramParams
from repro.simulator.dvs import ModeTable

_EPS = 1e-12


@dataclass(frozen=True)
class CycleAssignment:
    """``cycles`` executed at one table level within one region."""

    cycles: float
    frequency_hz: float
    voltage: float
    region: str  # "compute", "cache", "dependent", "overlap-leftover"

    @property
    def energy(self) -> float:
        return self.cycles * self.voltage * self.voltage

    @property
    def time_s(self) -> float:
        return self.cycles / self.frequency_hz


@dataclass(frozen=True)
class DiscreteSolution:
    """Optimal discrete-voltage schedule for the analytical model."""

    case: str
    assignments: tuple[CycleAssignment, ...]
    energy: float
    y_s: float | None = None  # chosen y in the memory-bound construction

    @property
    def num_levels_used(self) -> int:
        return len({a.voltage for a in self.assignments if a.cycles > _EPS})


def _neighbors(table: ModeTable, frequency: float) -> tuple[int, int]:
    """Indices (lo, hi) of the table levels bracketing a frequency.

    Exact matches return (i, i); below the slowest returns (0, 0); above
    the fastest raises (infeasible demand).
    """
    freqs = table.frequencies()
    if frequency > freqs[-1] * (1 + 1e-9):
        raise AnalysisError(
            f"required frequency {frequency / 1e6:.1f} MHz exceeds the fastest "
            f"level {freqs[-1] / 1e6:.1f} MHz"
        )
    if frequency <= freqs[0]:
        return 0, 0
    for i, f in enumerate(freqs):
        if abs(f - frequency) <= 1e-9 * f:
            return i, i
        if f > frequency:
            return i - 1, i
    return len(freqs) - 1, len(freqs) - 1


def two_level_split(
    cycles: float, budget_s: float, table: ModeTable, region: str
) -> list[CycleAssignment]:
    """Split ``cycles`` between the two levels neighbouring cycles/budget.

    Returns one or two assignments whose total time is ≤ budget (exactly
    == budget when two levels are needed).  Raises when even the fastest
    level cannot fit the cycles in the budget.
    """
    if cycles <= _EPS:
        return []
    if budget_s <= 0:
        raise AnalysisError(f"no time budget for {cycles:.3g} cycles")
    f_need = cycles / budget_s
    lo, hi = _neighbors(table, f_need)
    if lo == hi:
        point = table[lo]
        return [CycleAssignment(cycles, point.frequency_hz, point.voltage, region)]
    fa, fb = table[lo].frequency_hz, table[hi].frequency_hz
    va, vb = table[lo].voltage, table[hi].voltage
    # xa/fa + xb/fb = budget, xa + xb = cycles
    xa = fa * (fb * budget_s - cycles) / (fb - fa)
    xb = cycles - xa
    if xa < -1e-6 or xb < -1e-6:
        raise AnalysisError("two-level split produced negative cycle counts")
    result = []
    if xa > _EPS:
        result.append(CycleAssignment(xa, fa, va, region))
    if xb > _EPS:
        result.append(CycleAssignment(xb, fb, vb, region))
    return result


def _leftover_fill(
    leftover: float, window_s: float, lo_idx: int, hi_idx: int, table: ModeTable
) -> list[CycleAssignment]:
    """Run N_ov − N_cache leftover cycles inside the miss window.

    As many as fit go to the lower level ``fa``; the remainder runs at
    ``fb`` (the paper's ``max(..., 0)`` term allows the remainder to spill
    past the window — those cycles simply overlap the dependent region's
    start in the bound, keeping it optimistic).
    """
    if leftover <= _EPS:
        return []
    fa, va = table[lo_idx].frequency_hz, table[lo_idx].voltage
    fb, vb = table[hi_idx].frequency_hz, table[hi_idx].voltage
    at_lower = min(leftover, fa * window_s)
    remainder = leftover - at_lower
    result = []
    if at_lower > _EPS:
        result.append(CycleAssignment(at_lower, fa, va, "overlap-leftover"))
    if remainder > _EPS:
        result.append(CycleAssignment(remainder, fb, vb, "overlap-leftover"))
    return result


def discrete_single_baseline(
    params: ProgramParams, deadline_s: float, table: ModeTable
) -> DiscreteSolution:
    """Best *single* table level meeting the deadline (the comparison base
    of Table 1/Figures 9–11: 'best single-frequency setting that meets
    the deadline')."""
    for point in table:  # slowest first
        if params.execution_time_s(point.frequency_hz) <= deadline_s * (1 + 1e-9):
            cycles = params.region1_active_cycles + params.n_dependent
            assignment = CycleAssignment(cycles, point.frequency_hz, point.voltage, "compute")
            return DiscreteSolution("single-level", (assignment,), assignment.energy)
    raise AnalysisError(
        f"deadline {deadline_s:.6g}s infeasible even at "
        f"{table.fastest.frequency_hz / 1e6:.0f} MHz"
    )


def optimize_discrete(
    params: ProgramParams,
    deadline_s: float,
    table: ModeTable,
    y_samples: int = 300,
) -> DiscreteSolution:
    """Minimum-energy discrete schedule (Section 3.4).

    Evaluates every applicable construction (two-neighbour compute split,
    slack split, four-frequency y-sweep) plus the single-level baseline
    and returns the cheapest — so the result never regresses below the
    baseline the savings ratio compares against.
    """
    candidates: list[DiscreteSolution] = [
        discrete_single_baseline(params, deadline_s, table)
    ]

    if params.n_cache >= params.n_overlap:
        # Memory dominated with slack: single continuous optimum at
        # (N_cache + N_dep)/(t_dl − t_inv) -> two-neighbour split.
        budget = deadline_s - params.t_invariant_s
        if budget > 0:
            try:
                assignments = two_level_split(
                    params.n_cache + params.n_dependent, budget, table, "compute"
                )
                energy = sum(a.energy for a in assignments)
                candidates.append(
                    DiscreteSolution("memory-slack-split", tuple(assignments), energy)
                )
            except AnalysisError:
                pass
    else:
        # Compute-bound split over the whole deadline.
        try:
            assignments = two_level_split(
                params.total_compute_cycles, deadline_s, table, "compute"
            )
            energy = sum(a.energy for a in assignments)
            candidates.append(
                DiscreteSolution("compute-split", tuple(assignments), energy)
            )
        except AnalysisError:
            pass
        # Four-frequency memory-bound construction.
        best_y = _sweep_y(params, deadline_s, table, y_samples)
        if best_y is not None:
            candidates.append(best_y)

    best = min(candidates, key=lambda s: s.energy)
    return best


def _y_bounds(params: ProgramParams, deadline_s: float, table: ModeTable) -> tuple[float, float] | None:
    f_max = table.fastest.frequency_hz
    y_lo = params.n_cache / f_max  # region A must fit at the fastest level
    y_hi = deadline_s - params.t_invariant_s
    if params.n_dependent > 0:
        y_hi -= params.n_dependent / f_max  # leave room for region B
    f_inv = params.f_invariant()
    if f_inv > 0:
        # stay memory-dominated: f1 = N_cache / y >= f_invariant
        y_hi = min(y_hi, params.n_cache / f_inv)
    if y_hi <= y_lo or y_hi <= 0:
        return None
    return max(y_lo, _EPS), y_hi


def _emin_at_y(
    params: ProgramParams, deadline_s: float, table: ModeTable, y: float
) -> DiscreteSolution | None:
    try:
        cache_part = two_level_split(params.n_cache, y, table, "cache")
        dep_budget = deadline_s - params.t_invariant_s - y
        dep_part = two_level_split(params.n_dependent, dep_budget, table, "dependent")
    except AnalysisError:
        return None
    f1 = params.n_cache / y if y > 0 else table.fastest.frequency_hz
    lo, hi = _neighbors(table, min(f1, table.fastest.frequency_hz))
    leftover = _leftover_fill(
        params.n_overlap - params.n_cache, params.t_invariant_s, lo, hi, table
    )
    assignments = tuple(cache_part + dep_part + leftover)
    energy = sum(a.energy for a in assignments)
    return DiscreteSolution("memory-four-frequency", assignments, energy, y_s=y)


def _sweep_y(
    params: ProgramParams, deadline_s: float, table: ModeTable, y_samples: int
) -> DiscreteSolution | None:
    bounds = _y_bounds(params, deadline_s, table)
    if bounds is None:
        return None
    y_lo, y_hi = bounds
    ys = set(linspace(y_lo, y_hi, y_samples))
    # Staircase breakpoints: ys where f1 or f2 crosses a table frequency.
    for f in table.frequencies():
        if f > 0:
            y = params.n_cache / f
            if y_lo <= y <= y_hi:
                ys.add(y)
            y = deadline_s - params.t_invariant_s - params.n_dependent / f
            if y_lo <= y <= y_hi:
                ys.add(y)
    best: DiscreteSolution | None = None
    for y in sorted(ys):
        candidate = _emin_at_y(params, deadline_s, table, y)
        if candidate is not None and (best is None or candidate.energy < best.energy):
            best = candidate
    return best


def emin_y_curve(
    params: ProgramParams,
    deadline_s: float,
    table: ModeTable,
    samples: int = 200,
) -> list[tuple[float, float]]:
    """(y, Emin(y)) samples — the data behind Figure 8."""
    bounds = _y_bounds(params, deadline_s, table)
    if bounds is None:
        return []
    y_lo, y_hi = bounds
    curve: list[tuple[float, float]] = []
    for y in linspace(y_lo, y_hi, samples):
        candidate = _emin_at_y(params, deadline_s, table, y)
        if candidate is not None:
            curve.append((y, candidate.energy))
    return curve
