"""Continuous-voltage optimum (paper Section 3.3).

With a continuously scalable supply the optimum uses at most two voltages:
``v1`` for the overlapped region, ``v2`` for the dependent computation.
Three regimes arise:

* **computation dominated** (``f_ideal ≤ f_invariant``): a single voltage
  ``v_ideal`` at ``f_ideal = (N_ov + N_dep)/t_deadline`` is optimal — no
  intra-program DVS benefit (Figure 2);
* **memory dominated** (``N_cache < N_overlap`` and
  ``f_invariant < f_ideal``): two voltages, found by a golden-section
  search over v1 with v2 pinned by the deadline constraint (Figure 3);
* **memory dominated with slack** (``N_cache ≥ N_overlap``): a single
  voltage at ``(N_cache + N_dep)/(t_deadline − t_invariant)`` (Figure 4).

Energy accounting follows the paper: the overlapped region charges
``max(N_overlap, N_cache) · v1²`` and the dependent region
``N_dependent · v2²`` (processor energy only; gated waits are free).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.core.analytical.numeric import linspace
from repro.errors import AnalysisError
from repro.core.analytical.alpha_power import DEFAULT_LAW, AlphaPowerLaw
from repro.core.analytical.params import ProgramParams

_REL_TOL = 1e-9


class ContinuousCase(enum.Enum):
    """Which Section 3.3 regime the optimum fell into."""

    COMPUTATION_DOMINATED = "computation-dominated"
    MEMORY_DOMINATED = "memory-dominated"
    MEMORY_DOMINATED_SLACK = "memory-dominated-with-slack"
    ALL_AT_FLOOR = "all-at-voltage-floor"


@dataclass(frozen=True)
class ContinuousSolution:
    """Optimal continuous-voltage assignment.

    ``energy`` is in cycle·V² units (relative; only ratios matter).
    ``v1``/``f1`` cover the overlapped region, ``v2``/``f2`` the dependent
    region; equal values mean a single setting suffices.
    """

    case: ContinuousCase
    v1: float
    f1: float
    v2: float
    f2: float
    energy: float

    @property
    def uses_two_settings(self) -> bool:
        return abs(self.v1 - self.v2) > 1e-9


def _energy(params: ProgramParams, v1: float, v2: float) -> float:
    return params.region1_active_cycles * v1 * v1 + params.n_dependent * v2 * v2


def _check_feasible(params: ProgramParams, deadline_s: float, law: AlphaPowerLaw, v_high: float) -> None:
    f_max = law.frequency(v_high)
    fastest = params.execution_time_s(f_max)
    if fastest > deadline_s * (1 + 1e-9):
        raise AnalysisError(
            f"deadline {deadline_s:.6g}s infeasible: needs {fastest:.6g}s even at "
            f"{f_max / 1e6:.0f} MHz"
        )


def single_frequency_baseline(
    params: ProgramParams,
    deadline_s: float,
    law: AlphaPowerLaw = DEFAULT_LAW,
    v_low: float = 0.70,
    v_high: float = 1.65,
) -> ContinuousSolution:
    """Best single continuously-chosen frequency meeting the deadline.

    The energy-minimal single setting is the slowest feasible one (energy
    is increasing in voltage), floored at ``v_low``.
    """
    _check_feasible(params, deadline_s, law, v_high)
    f_single = params.min_single_frequency(deadline_s)
    f_floor = law.frequency(v_low)
    case = ContinuousCase.COMPUTATION_DOMINATED
    if f_single <= f_floor:
        f_single = f_floor
        case = ContinuousCase.ALL_AT_FLOOR
    voltage = max(law.voltage(f_single), v_low)
    return ContinuousSolution(
        case=case,
        v1=voltage,
        f1=f_single,
        v2=voltage,
        f2=f_single,
        energy=_energy(params, voltage, voltage),
    )


def optimize_continuous(
    params: ProgramParams,
    deadline_s: float,
    law: AlphaPowerLaw = DEFAULT_LAW,
    v_low: float = 0.70,
    v_high: float = 1.65,
    grid: int = 400,
) -> ContinuousSolution:
    """Minimum-energy (v1, v2) under continuous scaling (Section 3.3).

    Args:
        params: program characterization.
        deadline_s: execution-time budget.
        law: alpha-power voltage/frequency model.
        v_low, v_high: available voltage range.
        grid: unused; retained for call compatibility.  The
            memory-dominated search is now an exact golden-section
            minimization over a proven feasibility bracket, which needs
            no sample count.

    Raises:
        AnalysisError: when even the fastest setting misses the deadline.
    """
    _check_feasible(params, deadline_s, law, v_high)
    f_floor = law.frequency(v_low)

    # Everything-at-the-floor: deadline so lax that V_low alone meets it.
    if params.execution_time_s(f_floor) <= deadline_s:
        return ContinuousSolution(
            case=ContinuousCase.ALL_AT_FLOOR,
            v1=v_low, f1=f_floor, v2=v_low, f2=f_floor,
            energy=_energy(params, v_low, v_low),
        )

    # Memory dominated with slack (Section 3.3.2): N_cache >= N_overlap.
    if params.n_cache >= params.n_overlap:
        f_ideal = params.f_ideal_slack(deadline_s)
        f_ideal = max(f_ideal, f_floor)
        v_ideal = max(law.voltage(f_ideal), v_low)
        return ContinuousSolution(
            case=ContinuousCase.MEMORY_DOMINATED_SLACK,
            v1=v_ideal, f1=f_ideal, v2=v_ideal, f2=f_ideal,
            energy=_energy(params, v_ideal, v_ideal),
        )

    f_ideal = params.f_ideal(deadline_s)
    f_invariant = params.f_invariant()

    # Computation dominated (Section 3.3.1): a single frequency is optimal.
    if f_invariant >= f_ideal * (1 - _REL_TOL):
        v_ideal = max(law.voltage(f_ideal), v_low)
        return ContinuousSolution(
            case=ContinuousCase.COMPUTATION_DOMINATED,
            v1=v_ideal, f1=f_ideal, v2=v_ideal, f2=f_ideal,
            energy=_energy(params, v_ideal, v_ideal),
        )

    # Memory dominated: sweep v1, v2 pinned by the deadline.
    best = _search_memory_dominated(params, deadline_s, law, v_low, v_high, grid)
    if best is None:
        # Numerically degenerate corner: fall back to the single-frequency
        # baseline, which is always feasible here.
        return single_frequency_baseline(params, deadline_s, law, v_low, v_high)
    return best


def _region2_requirement(
    params: ProgramParams, deadline_s: float, f1: float
) -> float:
    """Time left for the dependent region after region 1 runs at f1."""
    region1 = max(
        params.t_invariant_s + params.n_cache / f1,
        params.n_overlap / f1,
    )
    return deadline_s - region1


def _search_memory_dominated(
    params: ProgramParams,
    deadline_s: float,
    law: AlphaPowerLaw,
    v_low: float,
    v_high: float,
    grid: int,
) -> ContinuousSolution | None:
    f_cap = law.frequency(v_high)
    f_floor = law.frequency(v_low)

    def evaluate(v1: float) -> tuple[float, float, float, float] | None:
        f1 = law.frequency(v1)
        remaining = _region2_requirement(params, deadline_s, f1)
        if params.n_dependent <= 0:
            if remaining < -1e-15:
                return None
            return (_energy(params, v1, v_low), v_low, f1, f_floor)
        if remaining <= 0:
            return None
        f2 = params.n_dependent / remaining
        if f2 > f_cap * (1 + 1e-9):
            return None
        f2 = max(f2, f_floor)
        v2 = max(law.voltage(f2), v_low)
        return (_energy(params, v1, v2), v2, f1, f2)

    # The feasible v1 values form an up-set: raising v1 shrinks region 1,
    # which grows the time left for region 2 and lowers the f2 it needs.
    # So feasibility is a threshold v1_min, found by bisection, and the
    # search domain is the interval [v1_min, v_high].
    if evaluate(v_high) is None:
        return None
    lo, hi = v_low, v_high
    if evaluate(lo) is None:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if evaluate(mid) is None:
                lo = mid
            else:
                hi = mid
        lo = hi  # smallest v1 proven feasible by the bisection

    # Golden-section search.  E(v1) is unimodal on the bracket: in the
    # time-split coordinate t1 the two region energies are convex
    # (decreasing resp. increasing), their sum is convex, and v1 -> t1
    # is strictly monotone — a monotone reparametrization preserves
    # unimodality, including through the v_low flooring of v2 (the
    # floored branch is the increasing tail R1*v1^2 + const).  Unlike the
    # old fixed grid this converges to the true minimizer, so the
    # reported optimum can only improve (lower energy, higher bound).
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, v_high
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = evaluate(c)[0]
    fd = evaluate(d)[0]
    while b - a > 1e-12:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = evaluate(c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = evaluate(d)[0]
    # The bracket has collapsed; pick the best point actually evaluated,
    # endpoints included (the minimum may sit on the feasibility edge).
    candidates = [(fc, c), (fd, d)]
    for v1 in (lo, v_high):
        entry = evaluate(v1)
        if entry is not None:
            candidates.append((entry[0], v1))
    _, best_v1 = min(candidates)
    best_entry = evaluate(best_v1)

    energy, v2, f1, f2 = best_entry
    return ContinuousSolution(
        case=ContinuousCase.MEMORY_DOMINATED,
        v1=best_v1, f1=f1, v2=v2, f2=f2, energy=energy,
    )


def energy_vs_v1_curve(
    params: ProgramParams,
    deadline_s: float,
    law: AlphaPowerLaw = DEFAULT_LAW,
    v_low: float = 0.70,
    v_high: float = 1.65,
    samples: int = 200,
) -> list[tuple[float, float]]:
    """(v1, minimal energy) samples — the data behind Figures 2–4.

    For each v1, v2 is chosen optimally from the deadline constraint;
    infeasible v1 values are omitted.
    """
    points: list[tuple[float, float]] = []
    for v1 in linspace(v_low, v_high, samples):
        f1 = law.frequency(v1)
        remaining = _region2_requirement(params, deadline_s, f1)
        if remaining <= 0:
            continue
        if params.n_dependent > 0:
            f2 = params.n_dependent / remaining
            if f2 > law.frequency(v_high) * (1 + 1e-12):
                continue
            v2 = max(law.voltage(f2), v_low)
        else:
            v2 = v_low
        points.append((v1, _energy(params, v1, v2)))
    return points
