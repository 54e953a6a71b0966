"""Simulation-based program profiling (the paper's Section 5.1).

Every mode contributes per-block time/energy under that mode; edge and
local-path counts are taken from the first run (the program's control flow
does not depend on frequency — assumption 1 of the paper's model).  With
the fast path on, the program is simulated once, at the first mode, and
that run records its block sequence and cache outcomes; every other mode
is a timing-only :meth:`~repro.simulator.machine.Machine.replay` of the
recording, bit-identical to a full run at that mode.  With the fast path
off (``--no-fastpath``, ``$REPRO_NO_FASTPATH=1``) every mode is a full
reference simulation.  The fastest-mode result also yields the Section 3.2
analytical parameters, so the paper's Table 7 numbers come from the same
simulations as the profile.
"""

from __future__ import annotations

import time

from repro import observe
from repro.errors import ProfileError
from repro.ir.cfg import CFG
from repro.profiling.profile_data import BlockModeData, ProfileData
from repro.simulator.machine import ExecutionStream, Machine, RunResult


def profile_program(
    machine: Machine,
    cfg: CFG,
    inputs: dict[str, list] | None = None,
    registers: dict[str, float] | None = None,
    modes: list[int] | None = None,
) -> ProfileData:
    """Profile a program under every mode of the machine's mode table.

    Args:
        machine: the simulator (its mode table defines the modes profiled).
        cfg: the program.
        inputs: array inputs.
        registers: entry parameters (``main.<param>`` registers).
        modes: subset of mode indices to profile (default: all).

    Returns:
        a validated :class:`~repro.profiling.profile_data.ProfileData`;
        its ``params`` are read off the fastest-mode run (what
        :func:`~repro.profiling.params_extract.extract_params` returns)
        when that mode is profiled, else ``None``.

    Raises:
        ProfileError: if runs disagree on control flow or results (the
            program would not be safely schedulable from this profile).
    """
    # Deferred: params_extract imports repro.core, which imports this module.
    from repro.perf.engine import fastpath_disabled_env
    from repro.profiling.params_extract import params_from_run

    mode_indices = list(modes) if modes is not None else list(range(len(machine.mode_table)))
    fastest = len(machine.mode_table) - 1
    if not mode_indices:
        raise ProfileError("no modes requested")

    profile = ProfileData(name=cfg.name, num_modes=len(machine.mode_table))
    baseline: RunResult | None = None
    stream = (ExecutionStream() if machine.fastpath and not fastpath_disabled_env()
              else None)
    replay_s = 0.0

    for mode in mode_indices:
        if stream is not None and stream.result is not None:
            t0 = time.perf_counter()
            result = machine.replay(stream, mode)
            replay_s += time.perf_counter() - t0
        else:
            result = machine.run(cfg, inputs=inputs, registers=registers,
                                 mode=mode, record=stream)
        if baseline is None:
            baseline = result
            profile.block_counts = {
                label: stats.count for label, stats in result.block_stats.items()
            }
            profile.edge_counts = dict(result.edge_counts)
            profile.path_counts = dict(result.path_counts)
            profile.return_value = result.return_value
        else:
            if result.return_value != baseline.return_value:
                raise ProfileError(
                    f"{cfg.name}: result changed across modes "
                    f"({baseline.return_value} vs {result.return_value})"
                )
            if result.edge_counts != baseline.edge_counts:
                raise ProfileError(f"{cfg.name}: control flow changed across modes")
        profile.per_mode[mode] = {
            label: BlockModeData(stats.time_s, stats.cpu_energy_nj, stats.count)
            for label, stats in result.block_stats.items()
        }
        profile.wall_time_s[mode] = result.wall_time_s
        profile.cpu_energy_nj[mode] = result.cpu_energy_nj
        if mode == fastest:
            profile.params = params_from_run(result, name=cfg.name)

    if replay_s:
        observe.add("profiling.replay_s", replay_s)
    profile.validate()
    return profile
