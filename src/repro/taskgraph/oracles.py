"""Differential and metamorphic oracles for the taskgraph family.

Checks (all raise :class:`VerificationError` with the failing instance
spelled out):

* **replay-exact** — the solver's objective and the canonical price of
  the decoded schedule both equal its replayed energy (the MILP prices
  transitions with the same nJ constants the simulator charges), within
  LP float tolerance;
* **deadline** — the replayed makespan meets the deadline;
* **milp-beats-greedy** — the (optimal or incumbent) MILP energy never
  exceeds the greedy heuristic's on the same instance;
* **cores-monotonic** — at a fixed absolute deadline, adding cores
  never increases optimal energy (a P-core schedule is feasible on
  P+1 cores with an idle lane);
* **deadline-monotonic** — at fixed cores, relaxing the deadline never
  increases optimal energy (the feasible set only grows).

Monotonicity is only asserted between *proven optimal* solves — an
incumbent from a truncated search may legitimately invert the order.
"""

from __future__ import annotations

import random
from typing import Any

from repro.errors import VerificationError
from repro.simulator.dvs import XSCALE_3, TransitionCostModel
from repro.taskgraph.heuristic import deadline_for, greedy_taskgraph
from repro.taskgraph.model import TaskGraphSpec, build_graph
from repro.taskgraph.solve import solve_taskgraph
from repro.taskgraph.tables import TaskTables, synthetic_tables

#: Relative tolerance for objective-vs-replay and cross-solve compares.
REL_TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _at_most(a: float, b: float) -> bool:
    return a <= b + REL_TOL * max(1.0, abs(a), abs(b))


def verify_instance(
    spec: TaskGraphSpec,
    tables: TaskTables,
    cores: int,
    frac: float,
    transition: TransitionCostModel,
    budget_s: float | None = None,
    backend: str = "auto",
) -> dict[str, Any]:
    """Differential checks on one (graph, cores, deadline) instance."""
    deadline_s = deadline_for(spec, tables, cores, frac, transition)
    label = f"{spec.name} p{cores} d{frac:g}"
    result = solve_taskgraph(spec, tables, cores, deadline_s, transition,
                             budget_s=budget_s, backend=backend)
    replayed = result["replayed"]
    if not _at_most(replayed["makespan_s"], deadline_s):
        raise VerificationError(
            f"[{label}] replayed makespan {replayed['makespan_s']:.9g}s "
            f"exceeds deadline {deadline_s:.9g}s")
    for name in ("solver_objective", "objective"):
        if result[name] is not None and not _close(
                result[name], replayed["energy_nj"]):
            raise VerificationError(
                f"[{label}] {name.replace('_', ' ')} {result[name]:.9g} "
                f"!= replayed energy {replayed['energy_nj']:.9g} nJ")
    greedy = greedy_taskgraph(spec, tables, cores, deadline_s, transition)
    if result["method"] != "greedy" and not _at_most(
            replayed["energy_nj"], greedy["replayed"]["energy_nj"]):
        raise VerificationError(
            f"[{label}] MILP energy {replayed['energy_nj']:.9g} nJ beats "
            f"greedy {greedy['replayed']['energy_nj']:.9g} nJ the wrong "
            f"way")
    return {
        "instance": label,
        "deadline_s": deadline_s,
        "method": result["method"],
        "energy_nj": replayed["energy_nj"],
        "greedy_energy_nj": greedy["replayed"]["energy_nj"],
        "degraded": result["degraded"],
    }


def verify_cores_monotonic(
    spec: TaskGraphSpec,
    tables: TaskTables,
    cores_list: list[int],
    frac: float,
    transition: TransitionCostModel,
    budget_s: float | None = None,
    backend: str = "auto",
) -> dict[str, Any]:
    """Fixed absolute deadline; energy must not rise with core count."""
    cores_list = sorted(cores_list)
    # Anchor the deadline at the fewest cores: every larger core count
    # can replicate that schedule with idle lanes, so all are feasible.
    deadline_s = deadline_for(spec, tables, cores_list[0], frac, transition)
    energies: list[tuple[int, float, bool]] = []
    for cores in cores_list:
        result = solve_taskgraph(spec, tables, cores, deadline_s, transition,
                                 budget_s=budget_s, backend=backend)
        energies.append((cores, result["replayed"]["energy_nj"],
                         result["method"] == "milp"))
    for (p_lo, e_lo, opt_lo), (p_hi, e_hi, opt_hi) in zip(
            energies, energies[1:]):
        if opt_lo and opt_hi and not _at_most(e_hi, e_lo):
            raise VerificationError(
                f"[{spec.name} d{frac:g}] optimal energy rose with cores: "
                f"p{p_lo}={e_lo:.9g} nJ -> p{p_hi}={e_hi:.9g} nJ")
    return {"deadline_s": deadline_s,
            "energies": [{"cores": p, "energy_nj": e, "optimal": o}
                         for p, e, o in energies]}


def verify_deadline_monotonic(
    spec: TaskGraphSpec,
    tables: TaskTables,
    cores: int,
    fracs: list[float],
    transition: TransitionCostModel,
    budget_s: float | None = None,
    backend: str = "auto",
) -> dict[str, Any]:
    """Fixed cores; energy must not rise as the deadline relaxes."""
    fracs = sorted(fracs)
    energies: list[tuple[float, float, bool]] = []
    for frac in fracs:
        deadline_s = deadline_for(spec, tables, cores, frac, transition)
        result = solve_taskgraph(spec, tables, cores, deadline_s, transition,
                                 budget_s=budget_s, backend=backend)
        energies.append((frac, result["replayed"]["energy_nj"],
                         result["method"] == "milp"))
    for (f_lo, e_lo, opt_lo), (f_hi, e_hi, opt_hi) in zip(
            energies, energies[1:]):
        if opt_lo and opt_hi and not _at_most(e_hi, e_lo):
            raise VerificationError(
                f"[{spec.name} p{cores}] optimal energy rose with a looser "
                f"deadline: d{f_lo:g}={e_lo:.9g} nJ -> "
                f"d{f_hi:g}={e_hi:.9g} nJ")
    return {"energies": [{"deadline_frac": f, "energy_nj": e, "optimal": o}
                         for f, e, o in energies]}


def run_oracle_suite(budget_s: float | None = None,
                     backend: str = "auto") -> dict[str, Any]:
    """The fixed verification battery behind ``repro verify``."""
    transition = TransitionCostModel()
    checks: list[dict[str, Any]] = []
    for shape, tasks in (("fork-join", 5), ("layered", 6), ("random", 5)):
        spec = build_graph(shape, tasks, 0)
        tables = synthetic_tables(spec, XSCALE_3)
        for cores in (1, 2):
            report = verify_instance(spec, tables, cores, 0.5, transition,
                                     budget_s=budget_s, backend=backend)
            checks.append({"check": "instance", **report})
        checks.append({
            "check": "cores-monotonic", "instance": spec.name,
            **verify_cores_monotonic(spec, tables, [1, 2, 3], 0.5,
                                     transition, budget_s=budget_s,
                                     backend=backend)})
        checks.append({
            "check": "deadline-monotonic", "instance": spec.name,
            **verify_deadline_monotonic(spec, tables, 2,
                                        [0.0, 0.5, 1.0], transition,
                                        budget_s=budget_s,
                                        backend=backend)})
    return {"ok": True, "checks": checks}


def fuzz_taskgraph(runs: int, seed: int = 0,
                   budget_s: float | None = None,
                   backend: str = "auto") -> dict[str, Any]:
    """Randomized instance oracle: seeded graphs, cores and deadlines."""
    rng = random.Random(("taskgraph-fuzz", runs, seed).__repr__())
    transition = TransitionCostModel()
    reports: list[dict[str, Any]] = []
    for _ in range(max(0, runs)):
        shape = rng.choice(("fork-join", "layered", "random"))
        tasks = rng.randint(4, 7)
        spec = build_graph(shape, tasks, rng.randint(0, 10_000))
        tables = synthetic_tables(spec, XSCALE_3)
        cores = rng.randint(1, 3)
        frac = round(rng.uniform(0.0, 1.0), 3)
        reports.append(verify_instance(spec, tables, cores, frac, transition,
                                       budget_s=budget_s, backend=backend))
    return {"ok": True, "runs": len(reports), "reports": reports}
