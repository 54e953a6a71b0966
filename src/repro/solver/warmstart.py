"""Per-sweep warm-start state: basis snapshots and shared pseudocosts.

A deadline sweep solves a chain of closely related MILPs: same workload
and mode table, deadline loosening step by step.  The optimal basis of
one deadline's LP relaxation is a few dual pivots away from the next
deadline's, and the branching behaviour of the binaries (pseudocosts)
transfers across the §5.3 multidata categories of the same workload.
This module is the hand-off point: the sweep runtime keys entries by the
experiment's ``shared_id`` so consecutive deadlines of the same
(workload, category, seed, table, capacitance) line find each other.

Everything here is *ephemeral per-sweep execution state* — like the
simulator fastpath knob, it is deliberately excluded from cache keys and
from anything serialized into ``results.jsonl``.  Warm starts change how
fast a solve converges, never what it converges to (and the optimizer
prices each schedule from its integer assignment alone, so even the
float bits are independent of the pivot path).  Dropping the registry at any point is
always safe; ``run_sweep`` resets it at the start of every run so
resumed and cold sweeps start from the same (empty) state.

Parallel sweeps (``--jobs N``) get per-worker registries for free: each
pool worker process has its own module instance.
"""

from __future__ import annotations

import numpy as np

from repro.solver.revised import Basis


class PseudocostStore:
    """Per-variable branching pseudocosts, averaged over observations.

    ``update(j, direction, degradation, frac)`` records the objective
    degradation per unit of fractionality observed when branching
    variable ``j`` down (0) or up (1); ``score(j, frac)`` combines both
    directions into the usual product score for selecting the branching
    variable.  Unobserved variables fall back to the average observed
    pseudocost, and a store with no history at all scores uniformly —
    reducing to most-fractional branching.
    """

    def __init__(self) -> None:
        self._sums: dict[tuple[int, int], float] = {}
        self._counts: dict[tuple[int, int], int] = {}

    def update(self, var: int, direction: int, degradation: float,
               frac: float) -> None:
        if frac <= 1e-12 or not np.isfinite(degradation):
            return
        key = (var, direction)
        self._sums[key] = self._sums.get(key, 0.0) + max(degradation, 0.0) / frac
        self._counts[key] = self._counts.get(key, 0) + 1

    def _cost(self, var: int, direction: int) -> float:
        key = (var, direction)
        if key in self._counts:
            return self._sums[key] / self._counts[key]
        total = sum(self._counts.values())
        if total == 0:
            return 1.0
        return sum(self._sums.values()) / total

    def score(self, var: int, frac: float) -> float:
        down = self._cost(var, 0) * frac
        up = self._cost(var, 1) * (1.0 - frac)
        return max(down, 1e-12) * max(up, 1e-12)

    @property
    def observations(self) -> int:
        return sum(self._counts.values())


class WarmStartRegistry:
    """Keyed hand-off of bases and pseudocosts between related solves."""

    def __init__(self) -> None:
        self._bases: dict[str, Basis] = {}
        self._pseudocosts: dict[str, PseudocostStore] = {}
        self.basis_hits = 0
        self.basis_misses = 0

    def get_basis(self, key: str) -> Basis | None:
        basis = self._bases.get(key)
        if basis is None:
            self.basis_misses += 1
            return None
        self.basis_hits += 1
        return basis.copy()

    def put_basis(self, key: str, basis: Basis) -> None:
        self._bases[key] = basis.copy()

    def pseudocosts(self, key: str) -> PseudocostStore:
        """The (created-on-demand) shared pseudocost store for ``key``."""
        store = self._pseudocosts.get(key)
        if store is None:
            store = self._pseudocosts[key] = PseudocostStore()
        return store

    def reset(self) -> None:
        self._bases.clear()
        self._pseudocosts.clear()
        self.basis_hits = 0
        self.basis_misses = 0

    def stats(self) -> dict[str, int]:
        return {
            "bases": len(self._bases),
            "pseudocost_stores": len(self._pseudocosts),
            "basis_hits": self.basis_hits,
            "basis_misses": self.basis_misses,
        }


_registry = WarmStartRegistry()


def registry() -> WarmStartRegistry:
    """The process-local registry (one per pool worker)."""
    return _registry


def reset() -> None:
    _registry.reset()
