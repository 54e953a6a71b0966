"""The task-graph MILP: modes + cores + per-core sequencing.

Generalizes the paper's per-edge mode MILP to a DAG on P cores.  For a
graph with tasks T, modes M and cores P the decision variables are:

* ``x[t,m]`` — task t runs in mode m (one per task);
* ``y[t,p]`` — task t runs on core p (one per task);
* ``a[p,i,j]`` — task j immediately follows task i on core p (chain
  adjacency; a virtual per-core source node models "j runs first");
* ``s[t]`` — start time of t, **in deadline-relative units** (the whole
  timeline is scaled by ``1/D`` so every row's magnitudes sit near 1,
  dodging absolute solver feasibility tolerances exactly like the
  single-stream formulation's scaled deadline row);
* ``e[i,j]``, ``w[i,j]`` — linearized transition energy (volt² units)
  and time (volt units) charged when j follows i on some core.

Constraints: unique mode/core per task, every task has exactly one
in-lane predecessor (a real task or a core's source), adjacency implies
co-residency, chain timing ``s_j >= s_i + dur_i + ST_ij`` (big-M gated
on adjacency), precedence timing for DAG edges, and the makespan
deadline ``s_t + dur_t <= 1``.  The objective prices task energies from
the per-task tables plus ``CE_nj * |dV²|`` per adjacency in the unified
nJ space — the same constants the replay oracle charges, so the solved
objective equals the replayed energy.

Cores boot in their first task's mode (no initial transition), matching
:func:`repro.taskgraph.simulate.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import observe
from repro.errors import ScheduleError
from repro.simulator.dvs import TransitionCostModel
from repro.solver.model import Model, Variable, exact_value, lin_sum
from repro.solver.solution import Solution
from repro.taskgraph.model import TaskGraphSpec
from repro.taskgraph.tables import TaskTables

#: Chain-source pseudo-task name (per core).
_SRC = "__src__"


@dataclass
class TgFormulation:
    """A built model plus everything needed to decode a solution."""

    model: Model
    spec: TaskGraphSpec
    tables: TaskTables
    cores: int
    deadline_s: float
    x: dict[tuple[str, int], Variable]
    y: dict[tuple[str, int], Variable]
    adj: dict[tuple[int, str, str], Variable]
    start: dict[str, Variable]
    #: Switch-energy auxiliary ``e[i,j]`` (volt² units) per ordered pair.
    switch: dict[tuple[str, str], Variable]

    def solve(self, backend: str = "auto", **options) -> Solution:
        with observe.span("taskgraph.milp.solve",
                          tasks=len(self.spec.nodes), cores=self.cores):
            return self.model.solve(backend=backend, **options)

    def extract_schedule(self, solution: Solution,
                         allow_incumbent: bool = False) -> dict[str, Any]:
        """Decode (modes, lanes) from a solved model.

        Args:
            solution: the MILP solution.
            allow_incumbent: accept a feasible-but-unproven incumbent
                (the anytime path) instead of requiring optimality.
        """
        if not (solution.ok or (allow_incumbent and solution.has_incumbent)):
            raise ScheduleError(
                f"taskgraph MILP has no usable solution "
                f"(status {solution.status.value})")
        value = lambda var: self.model.value_of(var, solution)
        names = self.spec.task_names()
        modes: dict[str, int] = {}
        for task in names:
            picks = [m for m in range(self.tables.num_modes)
                     if value(self.x[task, m]) > 0.5]
            if len(picks) != 1:
                raise ScheduleError(
                    f"task {task!r} has {len(picks)} modes selected")
            modes[task] = picks[0]
        order: list[list[str]] = []
        placed: set[str] = set()
        for core in range(self.cores):
            lane: list[str] = []
            current = _SRC
            while True:
                nexts = [j for j in names
                         if j not in placed and (core, current, j) in self.adj
                         and value(self.adj[core, current, j]) > 0.5]
                if not nexts:
                    break
                if len(nexts) > 1:
                    raise ScheduleError(
                        f"core {core} has {len(nexts)} successors of "
                        f"{current!r}")
                lane.append(nexts[0])
                placed.add(nexts[0])
                current = nexts[0]
            order.append(lane)
        if len(placed) != len(names):
            raise ScheduleError(
                f"adjacency chains place {len(placed)} of {len(names)} tasks")
        return {"modes": modes, "order": order}

    def price(self, schedule: dict[str, Any]) -> float:
        """Canonical objective (nJ) of a decoded schedule.

        The objective's variables are set from the integer assignment
        alone — ``x[t,m]`` from the modes, and each ``e[i,j]`` to the
        ``|dV²|`` its adjacency charges — and summed exactly
        (:func:`exact_value`), so HiGHS, the native simplex, warm or
        cold, price one schedule to the same bits.
        """
        point = [0.0] * len(self.model.variables)
        modes = schedule["modes"]
        voltages = self.tables.voltages()
        volt2 = {t: voltages[m] * voltages[m] for t, m in modes.items()}
        for task, mode in modes.items():
            point[self.x[task, mode].index] = 1.0
        for lane in schedule["order"]:
            for prev, task in zip(lane, lane[1:]):
                point[self.switch[prev, task].index] = abs(
                    volt2[prev] - volt2[task])
        return exact_value(self.model.objective, point)


def build_taskgraph_milp(
    spec: TaskGraphSpec,
    tables: TaskTables,
    cores: int,
    deadline_s: float,
    transition: TransitionCostModel,
) -> TgFormulation:
    """Build the mode/core/sequencing MILP for one instance."""
    if cores < 1:
        raise ScheduleError(f"need >= 1 core, got {cores}")
    if deadline_s <= 0:
        raise ScheduleError(f"deadline must be positive, got {deadline_s}")
    tables.validate(spec)

    with observe.span("taskgraph.milp.build",
                      tasks=len(spec.nodes), cores=cores):
        names = spec.task_names()
        num_modes = tables.num_modes
        voltages = tables.voltages()
        v_min, v_max = min(voltages), max(voltages)
        scale = 1.0 / deadline_s
        ct_scaled = transition.ct_s_per_v * scale  # switch time, volts -> rel
        big_m = 2.0 + ct_scaled * (v_max - v_min)
        big_e = v_max * v_max - v_min * v_min  # |dV²| ceiling
        big_t = v_max - v_min  # |dV| ceiling

        model = Model(name=f"taskgraph-{spec.name}-p{cores}")
        x = {(t, m): model.add_binary(f"x[{t},{m}]")
             for t in names for m in range(num_modes)}
        y = {(t, p): model.add_binary(f"y[{t},{p}]")
             for t in names for p in range(cores)}
        adj: dict[tuple[int, str, str], Variable] = {}
        for p in range(cores):
            for j in names:
                adj[p, _SRC, j] = model.add_binary(f"a[{p},{_SRC},{j}]")
                for i in names:
                    if i != j:
                        adj[p, i, j] = model.add_binary(f"a[{p},{i},{j}]")
        start = {t: model.add_var(f"s[{t}]", lb=0.0, ub=1.0) for t in names}

        # Scaled duration of a task as a linear expression of its modes.
        def dur(t: str):
            return lin_sum(x[t, m] * (tables.time(t, m) * scale)
                           for m in range(num_modes))

        # Voltage and voltage² of a task (for transition linearization).
        def volt(t: str):
            return lin_sum(x[t, m] * voltages[m] for m in range(num_modes))

        def volt2(t: str):
            return lin_sum(x[t, m] * (voltages[m] * voltages[m])
                           for m in range(num_modes))

        for t in names:
            model.add_constraint(
                lin_sum(x[t, m] for m in range(num_modes)) == 1,
                name=f"one-mode[{t}]")
            model.add_constraint(
                lin_sum(y[t, p] for p in range(cores)) == 1,
                name=f"one-core[{t}]")
            # Exactly one in-lane predecessor across all cores.
            model.add_constraint(
                lin_sum(adj[p, i, t]
                        for p in range(cores)
                        for i in [_SRC] + [n for n in names if n != t]) == 1,
                name=f"one-pred[{t}]")
            # Makespan deadline (scaled to rhs 1).
            model.add_constraint(start[t] + dur(t) <= 1.0,
                                 name=f"deadline[{t}]")

        for p in range(cores):
            # A core starts at most one chain.
            model.add_constraint(
                lin_sum(adj[p, _SRC, j] for j in names) <= 1,
                name=f"src-out[{p}]")
            for i in names:
                # At most one in-lane successor, only on i's own core.
                model.add_constraint(
                    lin_sum(adj[p, i, j] for j in names if j != i) <= y[i, p],
                    name=f"out[{p},{i}]")
            for j in names:
                model.add_constraint(adj[p, _SRC, j] <= y[j, p],
                                     name=f"co-src[{p},{j}]")
                for i in names:
                    if i != j:
                        model.add_constraint(adj[p, i, j] <= y[i, p],
                                             name=f"co-i[{p},{i},{j}]")
                        model.add_constraint(adj[p, i, j] <= y[j, p],
                                             name=f"co-j[{p},{i},{j}]")

        # Transition auxiliaries + chain timing per ordered task pair.
        switch: dict[tuple[str, str], Variable] = {}
        for i in names:
            for j in names:
                if i == j:
                    continue
                followed = lin_sum(adj[p, i, j] for p in range(cores))
                e_ij = model.add_var(f"e[{i},{j}]", lb=0.0, ub=big_e)
                w_ij = model.add_var(f"w[{i},{j}]", lb=0.0, ub=big_t)
                dv2 = volt2(i) - volt2(j)
                dv = volt(i) - volt(j)
                gap_e = big_e * (1.0 - followed)
                gap_t = big_t * (1.0 - followed)
                model.add_constraint(e_ij >= dv2 - gap_e,
                                     name=f"se+[{i},{j}]")
                model.add_constraint(e_ij >= (-1.0) * dv2 - gap_e,
                                     name=f"se-[{i},{j}]")
                model.add_constraint(w_ij >= dv - gap_t,
                                     name=f"st+[{i},{j}]")
                model.add_constraint(w_ij >= (-1.0) * dv - gap_t,
                                     name=f"st-[{i},{j}]")
                # Chain timing: j starts after i ends plus the switch.
                model.add_constraint(
                    start[j] >= start[i] + dur(i) + ct_scaled * w_ij
                    - big_m * (1.0 - followed),
                    name=f"chain[{i},{j}]")
                switch[i, j] = e_ij

        # Precedence timing for the DAG's own edges.
        for src, dst in sorted(spec.edges):
            model.add_constraint(start[dst] >= start[src] + dur(src),
                                 name=f"prec[{src},{dst}]")

        # Objective: task energies + per-switch SE, all in nJ.
        task_energy = lin_sum(
            x[t, m] * tables.energy(t, m)
            for t in names for m in range(num_modes))
        switch_energy = lin_sum(switch.values()) * transition.ce_nj_per_v2
        model.minimize(task_energy + switch_energy)

        observe.add("taskgraph.milp.vars", len(model.variables))
        observe.add("taskgraph.milp.rows", len(model.constraints))

    return TgFormulation(
        model=model, spec=spec, tables=tables, cores=cores,
        deadline_s=deadline_s, x=x, y=y, adj=adj, start=start,
        switch=switch,
    )
