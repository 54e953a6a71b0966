"""Greedy memory-boundedness heuristic (Hsu-Kremer flavour).

Hsu and Kremer's compiler lowers voltage in memory-bound regions: the
execution time there is bound by memory latency, so the compute can slow
with little wall-clock cost.  This baseline generalizes that intuition
into a greedy knapsack over profiled blocks:

1. start from the best single mode meeting the deadline (every block at
   that mode);
2. for every (block, slower-mode) pair compute the energy saved and the
   wall-clock added — for memory-bound blocks the added time is small
   because miss service is frequency-invariant;
3. take moves in decreasing savings-per-second order while the
   *predicted* schedule time (including SE/ST transition costs over the
   profiled local paths) stays within the deadline;
4. moves that no longer fit are skipped; the result is repaired to
   feasibility by construction.

The output is a normal edge :class:`DVSSchedule` (all edges into a block
carry the block's mode), so it runs and verifies exactly like the MILP's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.milp.schedule import DVSSchedule
from repro.core.milp.transition import TransitionCosts
from repro.profiling.profile_data import ProfileData
from repro.simulator.dvs import ModeTable, TransitionCostModel, ZERO_TRANSITION


@dataclass
class GreedyOutcome:
    """Result of the heuristic: schedule plus predicted cost."""

    schedule: DVSSchedule
    predicted_energy_nj: float
    predicted_time_s: float
    moves_taken: int
    moves_considered: int


def _schedule_from_block_modes(
    block_mode: dict[str, int], profile: ProfileData, num_modes: int
) -> DVSSchedule:
    assignment = {edge: block_mode[edge[1]] for edge in profile.edge_counts}
    return DVSSchedule(assignment=assignment, num_modes=num_modes)


def greedy_schedule(
    profile: ProfileData,
    mode_table: ModeTable,
    deadline_s: float,
    transition_model: TransitionCostModel = ZERO_TRANSITION,
) -> GreedyOutcome:
    """Build a heuristic schedule for one profiled program.

    Raises:
        ScheduleError: when no single mode meets the deadline (the
            heuristic, unlike the MILP, cannot mix modes to squeeze under
            a deadline tighter than the fastest single mode's runtime —
            though such deadlines are infeasible anyway).
    """
    num_modes = len(mode_table)
    costs = TransitionCosts.from_model(transition_model)
    base_mode, _ = profile.best_single_mode(deadline_s, num_modes)
    block_mode = {label: base_mode for label in profile.block_counts}

    # Candidate moves: (block, slower mode), ranked by energy saved per
    # second of wall-clock added (move cost ignores transition terms; the
    # acceptance check below prices them exactly).
    candidates = []
    for label, count in profile.block_counts.items():
        if count == 0:
            continue
        base_t = count * profile.time(label, base_mode)
        base_e = count * profile.energy(label, base_mode)
        for mode in range(base_mode):
            delta_t = count * profile.time(label, mode) - base_t
            delta_e = base_e - count * profile.energy(label, mode)
            if delta_e <= 0:
                continue
            score = delta_e / max(delta_t, 1e-15)
            candidates.append((score, label, mode, delta_t))
    candidates.sort(key=lambda c: -c[0])

    schedule = _schedule_from_block_modes(block_mode, profile, num_modes)
    energy, duration = schedule.predict(profile, mode_table, costs)
    moves = 0
    for _score, label, mode, _delta_t in candidates:
        if block_mode[label] != base_mode:
            continue  # block already moved by a better-ranked candidate
        trial = dict(block_mode)
        trial[label] = mode
        trial_schedule = _schedule_from_block_modes(trial, profile, num_modes)
        trial_energy, trial_time = trial_schedule.predict(profile, mode_table, costs)
        if trial_time <= deadline_s * (1 + 1e-12) and trial_energy < energy:
            block_mode = trial
            schedule = trial_schedule
            energy, duration = trial_energy, trial_time
            moves += 1

    return GreedyOutcome(
        schedule=schedule,
        predicted_energy_nj=energy,
        predicted_time_s=duration,
        moves_taken=moves,
        moves_considered=len(candidates),
    )
