"""Exact continuous-voltage schedules (Li-Yao-Yuan, arXiv 1408.5995).

The paper's Section 3 "opportunities" analysis bounds the best possible
continuous-voltage energy with a closed-form two-voltage model.  This
module replaces the bound with the *achievable optimum*: the classic
critical-interval (YDS) construction, which Li, Yao and Yuan showed can
be computed in O(n^2) for n jobs.  Each profiled basic block becomes a
job; the exact continuous optimum is then

* a lower bound on every discrete-mode schedule's energy (the
  ``continuous >= milp >= greedy`` differential oracle in repro.verify),
* an instant upper-bound pruner for branch-and-bound (via the rounded-up
  discrete schedule it induces, see :func:`round_up_schedule`), and
* an always-feasible anytime tier that never times out.

Job mapping (soundness sketch, full argument in docs/continuous.md)
-------------------------------------------------------------------

For every block ``b`` with visit count ``N_b`` we fit the two-parameter
model ``T_b(m) ~= c_b / f_m + m_b`` from the profiled per-visit times:

* scalable cycles ``c_b = (T_slow - T_fast) / (1/f_slow - 1/f_fast)``
  (clamped at zero), and
* memory-invariant time ``m_b = max(0, min_m (T_b(m) - c_b / f_m))`` —
  the *minimum* residual over modes, so ``c_b/f_m + m_b <= T_b(m)`` for
  every mode: the fitted model never overstates profiled time.

Blocks are laid on a line in sorted-label order; job ``b`` releases after
the cumulative invariant time of its predecessors and must finish
``w_b = N_b * c_b`` cycles by the program deadline.  Any feasible
discrete schedule induces a feasible point of this continuous relaxation
(run each job's cycles at its discrete frequency inside its window), and
its modeled energy ``eps * w_b * V_m^2`` with the *uniform* support
coefficient ``eps = min_b min_m E_b(m) / (c_b * V_m^2)`` never exceeds
the profiled energy.  The speed-to-voltage law is the calibrated
alpha-power curve, flattened at the slowest mode's voltage (energy per
cycle is constant below the floor), with ``k`` chosen as the envelope
over the table's operating points so ``voltage(f_m) <= V_m`` holds for
every mode.  Energy is convex nondecreasing in speed, so the YDS
schedule is optimal for it and the resulting energy is a true lower
bound for every discrete schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.analytical.alpha_power import AlphaPowerLaw
from repro.core.milp.filtering import FilterResult, no_filtering
from repro.core.milp.schedule import DVSSchedule
from repro.core.milp.transition import TransitionCosts
from repro.errors import ScheduleError
from repro.ir.cfg import Edge
from repro.profiling.profile_data import ProfileData
from repro.simulator.dvs import ModeTable, TransitionCostModel, ZERO_TRANSITION

# Relative slack when comparing float-accumulated interval lengths.
_REL_EPS = 1e-9


# ---------------------------------------------------------------------------
# Job model and the O(n^2) critical-interval engine.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousJob:
    """One unit of scalable work with a release/deadline window."""

    label: str
    release_s: float
    deadline_s: float
    work_cycles: float

    @property
    def width_s(self) -> float:
        return self.deadline_s - self.release_s


@dataclass(frozen=True)
class SpeedPhase:
    """One critical interval peeled by the engine (compressed time)."""

    speed_hz: float
    length_s: float
    labels: tuple[str, ...]


@dataclass(frozen=True)
class SpeedProfile:
    """The optimal continuous speed per job plus engine diagnostics."""

    speeds: dict[str, float]
    phases: tuple[SpeedPhase, ...]
    intensity_evals: int

    @property
    def peak_speed_hz(self) -> float:
        return max((p.speed_hz for p in self.phases), default=0.0)


def _validate_jobs(jobs: list[ContinuousJob]) -> list[ContinuousJob]:
    active = []
    for job in jobs:
        if job.work_cycles < 0:
            raise ScheduleError(f"job {job.label!r} has negative work")
        if job.work_cycles == 0:
            continue
        if not job.deadline_s > job.release_s:
            raise ScheduleError(
                f"job {job.label!r} window [{job.release_s}, {job.deadline_s}] "
                "is empty but carries work"
            )
        active.append(job)
    return active


def optimal_speeds(jobs: list[ContinuousJob]) -> SpeedProfile:
    """Exact minimum-energy continuous speeds (any convex power function).

    Dispatches to a dedicated O(n^2)-total pass when every job shares one
    deadline (the shape :func:`jobs_from_profile` produces) and to the
    general critical-interval peeling otherwise.  Both return identical
    speeds; under exact intensity ties the phase *partition* may differ.
    """
    active = _validate_jobs(jobs)
    if not active:
        return SpeedProfile(speeds={}, phases=(), intensity_evals=0)
    if len({job.deadline_s for job in active}) == 1:
        return _peel_common_deadline(active)
    return _peel_general(active)


def _peel_general(jobs: list[ContinuousJob]) -> SpeedProfile:
    """Critical-interval peeling over arbitrary windows, O(n^2) per phase."""
    remaining: dict[str, list[float]] = {
        job.label: [job.release_s, job.deadline_s, job.work_cycles] for job in jobs
    }
    if len(remaining) != len(jobs):
        raise ScheduleError("job labels must be unique")
    speeds: dict[str, float] = {}
    phases: list[SpeedPhase] = []
    evals = 0

    while remaining:
        items = sorted(remaining.items())
        releases = sorted({window[0] for _, window in items})
        best_g = -1.0
        best_a = best_b = 0.0
        for a in releases:
            group = sorted(
                (window[1], window[2])
                for _, window in items
                if window[0] >= a
            )
            cumulative = 0.0
            for d, w in group:
                cumulative += w
                evals += 1
                g = cumulative / (d - a)
                # Strict > keeps the smallest (a, b) on exact ties.
                if g > best_g:
                    best_g, best_a, best_b = g, a, d
        if best_g <= 0:
            raise ScheduleError("no positive-intensity interval found")

        members = [
            label
            for label, window in items
            if window[0] >= best_a and window[1] <= best_b
        ]
        for label in members:
            speeds[label] = best_g
            del remaining[label]
        phases.append(
            SpeedPhase(
                speed_hz=best_g,
                length_s=best_b - best_a,
                labels=tuple(sorted(members)),
            )
        )
        # Excise [a, b]: map t -> t - |(a, b) ∩ (-inf, t)|.
        length = best_b - best_a
        for window in remaining.values():
            for idx in (0, 1):
                t = window[idx]
                if t <= best_a:
                    continue
                window[idx] = best_a if t <= best_b else t - length
    return SpeedProfile(speeds=speeds, phases=tuple(phases), intensity_evals=evals)


def _peel_common_deadline(jobs: list[ContinuousJob]) -> SpeedProfile:
    """O(n^2)-total staircase for jobs sharing a single deadline.

    The critical interval always ends at the current deadline, so each
    phase is a max over suffix intensities; peeling shrinks the deadline
    to the chosen interval's start and recurses on the prefix.
    """
    ordered = sorted(jobs, key=lambda job: (job.release_s, job.label))
    deadline = ordered[0].deadline_s
    speeds: dict[str, float] = {}
    phases: list[SpeedPhase] = []
    evals = 0
    hi = len(ordered)

    while hi > 0:
        best_g = -1.0
        best_idx = hi - 1
        cumulative = 0.0
        for idx in range(hi - 1, -1, -1):
            cumulative += ordered[idx].work_cycles
            if idx > 0 and ordered[idx - 1].release_s == ordered[idx].release_s:
                continue  # same release group: extend the suffix first
            evals += 1
            a = ordered[idx].release_s
            if not deadline > a:
                raise ScheduleError(
                    f"job {ordered[idx].label!r} window collapsed during peeling"
                )
            g = cumulative / (deadline - a)
            if g > best_g:
                best_g = g
                best_idx = idx
        start = ordered[best_idx].release_s
        members = ordered[best_idx:hi]
        for job in members:
            speeds[job.label] = best_g
        phases.append(
            SpeedPhase(
                speed_hz=best_g,
                length_s=deadline - start,
                labels=tuple(sorted(job.label for job in members)),
            )
        )
        deadline = start
        hi = best_idx
    return SpeedProfile(speeds=speeds, phases=tuple(phases), intensity_evals=evals)


def is_feasible_speed_assignment(
    jobs: list[ContinuousJob],
    speeds: dict[str, float],
    rel_tol: float = 1e-9,
) -> bool:
    """Hall's condition: per-job constant speeds admit a preemptive schedule
    iff, for every window [a, b] spanned by a release and a deadline, the
    processing time of the jobs contained in it fits: sum w/s <= b - a."""
    active = _validate_jobs(jobs)
    for job in active:
        if speeds.get(job.label, 0.0) <= 0:
            return False
    releases = sorted({job.release_s for job in active})
    deadlines = sorted({job.deadline_s for job in active})
    for a in releases:
        for b in deadlines:
            if b <= a:
                continue
            load = sum(
                job.work_cycles / speeds[job.label]
                for job in active
                if job.release_s >= a and job.deadline_s <= b
            )
            if load > (b - a) * (1.0 + rel_tol):
                return False
    return True


# ---------------------------------------------------------------------------
# Mapping a profiled program onto jobs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockJobModel:
    """Per-visit linear time model of one block plus its energy support."""

    label: str
    visits: int
    cycles_per_visit: float
    invariant_s_per_visit: float
    # nJ per (cycle * V^2); None when the block has no scalable cycles.
    epsilon_nj: float | None

    @property
    def work_cycles(self) -> float:
        return self.visits * self.cycles_per_visit

    @property
    def invariant_s(self) -> float:
        return self.visits * self.invariant_s_per_visit


def fit_block_models(
    profile: ProfileData, mode_table: ModeTable
) -> list[BlockJobModel]:
    """Fit ``T_b(m) ~= c_b / f_m + m_b`` per block from profiled times.

    The residual-minimum ``m_b`` guarantees the model never exceeds the
    profiled per-visit time at any mode, which the relaxation proof in
    the module docstring relies on.
    """
    modes = sorted(profile.per_mode)
    if len(modes) < 2:
        raise ScheduleError(
            f"profile {profile.name!r} has {len(modes)} mode(s); the "
            "continuous bound needs at least two to separate scalable "
            "cycles from memory-invariant time"
        )
    freqs = {m: mode_table[m].frequency_hz for m in modes}
    volts = {m: mode_table[m].voltage for m in modes}
    slow, fast = modes[0], modes[-1]
    inv_span = 1.0 / freqs[slow] - 1.0 / freqs[fast]
    if inv_span <= 0:
        raise ScheduleError("mode table is not ordered slowest to fastest")

    models = []
    for label in sorted(profile.block_counts):
        visits = profile.block_counts[label]
        times = {m: profile.time(label, m) for m in modes}
        cycles = max(0.0, (times[slow] - times[fast]) / inv_span)
        invariant = max(
            0.0, min(times[m] - cycles / freqs[m] for m in modes)
        )
        epsilon = None
        if cycles > 0:
            epsilon = min(
                profile.energy(label, m) / (cycles * volts[m] * volts[m])
                for m in modes
            )
        models.append(
            BlockJobModel(
                label=label,
                visits=visits,
                cycles_per_visit=cycles,
                invariant_s_per_visit=invariant,
                epsilon_nj=epsilon,
            )
        )
    return models


def envelope_law(mode_table: ModeTable) -> AlphaPowerLaw:
    """Alpha-power law whose curve dominates every table operating point.

    ``k`` is the max over modes of the value needed to reach that mode's
    frequency at its voltage, so ``law.voltage(f_m) <= V_m`` for every
    mode — modeled continuous energy at a mode's speed never exceeds the
    discrete energy at that mode, keeping the lower bound sound.
    """
    base = AlphaPowerLaw.calibrated()
    k = max(
        point.frequency_hz
        * point.voltage
        / (point.voltage - base.vt) ** base.alpha
        for point in mode_table.points
    )
    return AlphaPowerLaw(k=k, alpha=base.alpha, vt=base.vt)


def jobs_from_profile(
    profile: ProfileData, mode_table: ModeTable, deadline_s: float
) -> tuple[list[ContinuousJob], float, float]:
    """Lay the fitted blocks on a line: (jobs, epsilon_nj, invariant_s).

    Releases are the cumulative memory-invariant time of the preceding
    blocks (sorted-label order — the proof works for any fixed order);
    every job shares the program deadline.  ``epsilon_nj`` is the uniform
    energy-support coefficient (nJ per cycle*V^2); ``invariant_s`` the
    total unscalable time.
    """
    models = fit_block_models(profile, mode_table)
    invariant_total = sum(model.invariant_s for model in models)
    if invariant_total > deadline_s * (1.0 + _REL_EPS):
        raise ScheduleError(
            f"deadline {deadline_s:.6g}s is below the memory-invariant floor "
            f"{invariant_total:.6g}s of {profile.name!r}"
        )
    epsilons = [m.epsilon_nj for m in models if m.epsilon_nj is not None]
    epsilon = min(epsilons) if epsilons else 0.0

    jobs = []
    release = 0.0
    for model in models:
        if model.work_cycles > 0:
            jobs.append(
                ContinuousJob(
                    label=model.label,
                    release_s=release,
                    deadline_s=deadline_s,
                    work_cycles=model.work_cycles,
                )
            )
        release += model.invariant_s
    return jobs, epsilon, invariant_total


# ---------------------------------------------------------------------------
# The exact continuous bound.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousOutcome:
    """Exact continuous-voltage optimum for one (profile, deadline)."""

    program: str
    deadline_s: float
    energy_nj: float
    peak_speed_hz: float
    invariant_s: float
    scalable_cycles: float
    epsilon_nj: float
    speeds: dict[str, float]
    phases: tuple[SpeedPhase, ...]
    intensity_evals: int
    # Peak speed reachable within the table's voltage range?  Always true
    # when any discrete schedule meets the deadline (YDS minimizes peak).
    within_mode_range: bool
    voltage_floor: float
    voltage_ceiling: float

    def savings_vs(self, baseline_energy_nj: float) -> float:
        """Fractional energy savings against a baseline (>= 0 clamp-free)."""
        if baseline_energy_nj <= 0:
            return 0.0
        return 1.0 - self.energy_nj / baseline_energy_nj


def continuous_bound(
    profile: ProfileData,
    mode_table: ModeTable,
    deadline_s: float,
    law: AlphaPowerLaw | None = None,
) -> ContinuousOutcome:
    """Exact continuous-voltage energy optimum (nJ lower bound).

    Runs the O(n^2) engine on the profile's job mapping and prices the
    optimal speeds on the envelope alpha-power curve flattened at the
    slowest mode's voltage.

    Raises:
        ScheduleError: single-mode profile, or deadline below the
            memory-invariant floor (no schedule at any speed fits).
    """
    if deadline_s <= 0:
        raise ScheduleError(f"deadline must be positive, got {deadline_s}")
    law = law or envelope_law(mode_table)
    jobs, epsilon, invariant_s = jobs_from_profile(profile, mode_table, deadline_s)
    result = optimal_speeds(jobs)

    v_low = mode_table.slowest.voltage
    v_high = mode_table.fastest.voltage
    f_floor = law.frequency(v_low)
    f_ceiling = law.frequency(v_high)

    energy = 0.0
    # Every job of a critical phase runs at the phase's speed, so a
    # profile's hundreds of jobs share a handful of speeds: invert each
    # distinct one once.
    voltages: dict[float, float] = {}
    for job in jobs:
        speed = result.speeds[job.label]
        voltage = voltages.get(speed)
        if voltage is None:
            # Below the floor the voltage (hence energy/cycle) stops falling.
            voltage = v_low if speed <= f_floor else law.voltage(speed)
            voltages[speed] = voltage
        energy += epsilon * job.work_cycles * voltage * voltage

    peak = result.peak_speed_hz
    return ContinuousOutcome(
        program=profile.name,
        deadline_s=deadline_s,
        energy_nj=energy,
        peak_speed_hz=peak,
        invariant_s=invariant_s,
        scalable_cycles=sum(job.work_cycles for job in jobs),
        epsilon_nj=epsilon,
        speeds=result.speeds,
        phases=result.phases,
        intensity_evals=result.intensity_evals,
        within_mode_range=peak <= f_ceiling * (1.0 + _REL_EPS),
        voltage_floor=v_low,
        voltage_ceiling=v_high,
    )


# ---------------------------------------------------------------------------
# Rounding the continuous optimum up to a discrete, MILP-feasible schedule.
# ---------------------------------------------------------------------------


class ModeChoiceEvaluator:
    """Exact MILP objective/deadline values for an integral mode choice.

    Mirrors the Section 4.2 formulation's accounting — including edge
    filtering, where tied edges share their representative's mode — so an
    evaluated energy is exactly the objective the solver would assign to
    that feasible point.  That makes it a *sound* incumbent upper bound
    for branch-and-bound over the same (possibly filtered) model.
    """

    def __init__(
        self,
        profile: ProfileData,
        mode_table: ModeTable,
        transition_model: TransitionCostModel = ZERO_TRANSITION,
        filter_result: FilterResult | None = None,
    ) -> None:
        self.profile = profile
        self.mode_table = mode_table
        self.filter_result = filter_result or no_filtering(profile)
        self.costs = TransitionCosts.from_model(transition_model)
        self.num_modes = len(mode_table)
        self.reps: list[Edge] = sorted(
            {self.filter_result.resolve(edge) for edge in profile.edge_counts}
        )
        self._edge_rep = {
            edge: self.filter_result.resolve(edge) for edge in profile.edge_counts
        }
        # Paths whose two edges resolve to distinct representatives are the
        # only ones that can ever pay a transition (same rep => same mode).
        self._paths = []
        if not self.costs.is_free:
            for (h, i, j), count in profile.path_counts.items():
                rep_in = self._edge_rep.get((h, i))
                rep_out = self._edge_rep.get((i, j))
                if rep_in is None or rep_out is None or rep_in == rep_out:
                    continue
                self._paths.append((rep_in, rep_out, count))
        self._voltages = mode_table.voltages()
        self._v2 = [v * v for v in self._voltages]

    def evaluate(self, rep_modes: dict[Edge, int]) -> tuple[float, float]:
        """(energy_nj, time_s) of the schedule induced by per-rep modes."""
        energy = 0.0
        time = 0.0
        for edge, count in self.profile.edge_counts.items():
            mode = rep_modes[self._edge_rep[edge]]
            dst = edge[1]
            energy += count * self.profile.energy(dst, mode)
            time += count * self.profile.time(dst, mode)
        for rep_in, rep_out, count in self._paths:
            m_in = rep_modes[rep_in]
            m_out = rep_modes[rep_out]
            energy += count * self.costs.ce_nj_per_v2 * abs(
                self._v2[m_in] - self._v2[m_out]
            )
            time += count * self.costs.ct_s_per_v * abs(
                self._voltages[m_in] - self._voltages[m_out]
            )
        return energy, time

    def schedule(self, rep_modes: dict[Edge, int]) -> DVSSchedule:
        """The full per-edge schedule induced by per-rep modes."""
        assignment = {
            edge: rep_modes[rep] for edge, rep in self._edge_rep.items()
        }
        return DVSSchedule(assignment=assignment, num_modes=self.num_modes)


@dataclass(frozen=True)
class RoundUpResult:
    """A deadline-feasible discrete schedule derived from continuous speeds."""

    schedule: DVSSchedule
    energy_nj: float
    time_s: float
    rep_modes: dict[Edge, int]
    bumps: int


def round_up_schedule(
    profile: ProfileData,
    mode_table: ModeTable,
    deadline_s: float,
    speeds: dict[str, float],
    transition_model: TransitionCostModel = ZERO_TRANSITION,
    filter_result: FilterResult | None = None,
) -> RoundUpResult | None:
    """Round continuous speeds up to modes and repair the deadline.

    Starts each representative edge at the slowest mode at least as fast
    as its destination block's continuous speed, then deterministically
    bumps the representative with the best time-recovered-per-energy
    ratio until the deadline holds.  Returns None when even all-fastest
    misses the deadline (the discrete instance is infeasible).
    """
    evaluator = ModeChoiceEvaluator(
        profile, mode_table, transition_model, filter_result
    )
    freqs = mode_table.frequencies()
    top = len(freqs) - 1

    def mode_for(label: str) -> int:
        speed = speeds.get(label)
        if speed is None or speed <= 0:
            return 0
        for m, f in enumerate(freqs):
            if f >= speed * (1.0 - _REL_EPS):
                return m
        return top

    rep_modes = {rep: mode_for(rep[1]) for rep in evaluator.reps}
    energy, time = evaluator.evaluate(rep_modes)
    bumps = 0
    while time > deadline_s:
        best = None  # (ratio, rep, energy, time)
        for rep in evaluator.reps:
            if rep_modes[rep] >= top:
                continue
            rep_modes[rep] += 1
            cand_energy, cand_time = evaluator.evaluate(rep_modes)
            rep_modes[rep] -= 1
            gain = time - cand_time
            if gain <= 0:
                continue
            cost = max(cand_energy - energy, 0.0)
            ratio = gain / (cost + 1e-30)
            if best is None or ratio > best[0]:
                best = (ratio, rep, cand_energy, cand_time)
        if best is None:
            # No single bump recovers time (transition-cost plateau):
            # fall back to the all-fastest schedule.
            if all(rep_modes[rep] >= top for rep in evaluator.reps):
                return None
            for rep in evaluator.reps:
                rep_modes[rep] = top
            energy, time = evaluator.evaluate(rep_modes)
            bumps += 1
            break
        _, rep, energy, time = best
        rep_modes[rep] += 1
        bumps += 1
    if time > deadline_s:
        return None
    # Improvement pass: walk modes back down wherever a single-step
    # lowering keeps the deadline and reduces energy.  Energy strictly
    # decreases each step, so this terminates; picking the largest
    # reduction (ties: first rep in sorted order) keeps it deterministic.
    improved = True
    while improved:
        improved = False
        best_down = None  # (saving, rep, energy, time)
        for rep in evaluator.reps:
            if rep_modes[rep] <= 0:
                continue
            rep_modes[rep] -= 1
            cand_energy, cand_time = evaluator.evaluate(rep_modes)
            rep_modes[rep] += 1
            if cand_time > deadline_s:
                continue
            saving = energy - cand_energy
            if saving <= 0:
                continue
            if best_down is None or saving > best_down[0]:
                best_down = (saving, rep, cand_energy, cand_time)
        if best_down is not None:
            _, rep, energy, time = best_down
            rep_modes[rep] -= 1
            improved = True
    return RoundUpResult(
        schedule=evaluator.schedule(rep_modes),
        energy_nj=energy,
        time_s=time,
        rep_modes=rep_modes,
        bumps=bumps,
    )
