"""Containers for profile data.

All quantities follow the paper's notation (Section 4.2):

* ``G[(i, j)]`` — times region j is entered through edge (i, j);
* ``D[(h, i, j)]`` — times region i is entered through (h, i) and exited
  through (i, j) (the *local path* through i);
* ``T[m][j]``, ``E[m][j]`` — per-invocation execution time (seconds) and
  CPU energy (nanojoules) of region j under mode m.

Per-invocation values are run totals divided by execution counts; the MILP
objective multiplies them back by the profiled counts, which reproduces the
run totals exactly while letting each edge carry its own mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ProfileError, ScheduleError
from repro.ir.cfg import Edge

if TYPE_CHECKING:
    from repro.core.analytical.params import ProgramParams


@dataclass
class BlockModeData:
    """Per-block, per-mode profile: run totals and per-invocation averages."""

    total_time_s: float
    total_energy_nj: float
    count: int

    @property
    def time_per_visit_s(self) -> float:
        return self.total_time_s / self.count if self.count else 0.0

    @property
    def energy_per_visit_nj(self) -> float:
        return self.total_energy_nj / self.count if self.count else 0.0


@dataclass
class ProfileData:
    """Everything the formulation needs about one (program, input) pair.

    Attributes:
        name: program name.
        num_modes: number of DVS modes profiled.
        block_counts: label -> dynamic execution count.
        edge_counts: (i, j) -> traversal count G_ij (includes the synthetic
            entry edge).
        path_counts: (h, i, j) -> local-path count D_hij.
        per_mode: mode index -> {label -> BlockModeData}.
        wall_time_s: mode index -> whole-run wall time.
        cpu_energy_nj: mode index -> whole-run CPU energy.
        return_value: the program's result (sanity checks across modes).
        params: the Section 3.2 parameters read off the fastest-mode run
            (``None`` when that mode was not profiled, or for a profile
            saved before profiles carried them).
    """

    name: str
    num_modes: int
    block_counts: dict[str, int] = field(default_factory=dict)
    edge_counts: dict[Edge, int] = field(default_factory=dict)
    path_counts: dict[tuple[str, str, str], int] = field(default_factory=dict)
    per_mode: dict[int, dict[str, BlockModeData]] = field(default_factory=dict)
    wall_time_s: dict[int, float] = field(default_factory=dict)
    cpu_energy_nj: dict[int, float] = field(default_factory=dict)
    return_value: float | None = None
    params: ProgramParams | None = None

    def time(self, block: str, mode: int) -> float:
        """T_jm: per-invocation time of ``block`` under ``mode`` (seconds)."""
        return self._lookup(block, mode).time_per_visit_s

    def energy(self, block: str, mode: int) -> float:
        """E_jm: per-invocation CPU energy of ``block`` under ``mode`` (nJ)."""
        return self._lookup(block, mode).energy_per_visit_nj

    def _lookup(self, block: str, mode: int) -> BlockModeData:
        try:
            return self.per_mode[mode][block]
        except KeyError:
            raise ProfileError(f"no profile for block {block!r} at mode {mode}") from None

    def edges(self) -> list[Edge]:
        """Profiled (traversed) edges, including the entry edge."""
        return list(self.edge_counts)

    def deadline_at(self, frac: float) -> float:
        """Deadline a fraction of the way from all-fast to all-slow.

        ``frac=0`` is the fastest-mode runtime (no slack), ``frac=1`` the
        slowest-mode runtime.  A profile with a single mode has no
        fast->slow range — every fraction would collapse to the same
        zero-slack deadline — so it is rejected instead of silently
        producing a degenerate optimization instance.
        """
        modes = sorted(self.wall_time_s)
        if len(modes) < 2:
            raise ProfileError(
                f"profile {self.name!r} has {len(modes)} mode(s); deadline "
                "fractions need at least two (use --levels >= 2 or pass an "
                "absolute deadline)"
            )
        t_fast = self.wall_time_s[modes[-1]]
        t_slow = self.wall_time_s[modes[0]]
        return t_fast + frac * (t_slow - t_fast)

    def best_single_mode(self, deadline_s: float,
                         num_modes: int | None = None) -> tuple[int, float]:
        """Slowest single mode meeting the deadline and its energy (nJ).

        Modes are indexed slowest first; ``num_modes`` defaults to the
        profiled count.  Raises :class:`~repro.errors.ScheduleError`
        when even the fastest mode misses the deadline.
        """
        num_modes = self.num_modes if num_modes is None else num_modes
        for mode in range(num_modes):
            if self.wall_time_s[mode] <= deadline_s * (1 + 1e-9):
                return mode, self.cpu_energy_nj[mode]
        raise ScheduleError(
            f"deadline {deadline_s:.6g}s infeasible for {self.name!r}: "
            f"fastest mode needs {self.wall_time_s[num_modes - 1]:.6g}s"
        )

    def block_energy_share(self, mode: int) -> dict[str, float]:
        """Fraction of whole-run energy attributable to each block at a mode
        (drives the paper's Section 5.2 edge filtering)."""
        total = self.cpu_energy_nj.get(mode, 0.0)
        if total <= 0:
            raise ProfileError(f"no energy recorded for mode {mode}")
        return {
            label: data.total_energy_nj / total
            for label, data in self.per_mode[mode].items()
        }

    def validate(self) -> None:
        """Internal-consistency checks (counts conserve across structures)."""
        if not self.per_mode:
            raise ProfileError("profile holds no per-mode data")
        for mode, blocks in self.per_mode.items():
            for label, data in blocks.items():
                expected = self.block_counts.get(label, 0)
                if data.count != expected:
                    raise ProfileError(
                        f"mode {mode} block {label!r}: count {data.count} != "
                        f"baseline {expected} (nondeterministic program?)"
                    )
        # Local paths through i must sum to the incoming-edge counts of i,
        # except for the block that ends the program (no outgoing edge).
        outgoing_by_edge: dict[Edge, int] = {}
        for (h, i, j), count in self.path_counts.items():
            outgoing_by_edge[(h, i)] = outgoing_by_edge.get((h, i), 0) + count
        for edge, count in outgoing_by_edge.items():
            if count > self.edge_counts.get(edge, 0):
                raise ProfileError(
                    f"path counts through edge {edge} exceed its traversal count"
                )
