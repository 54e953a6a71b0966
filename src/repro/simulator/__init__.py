"""Wattch/SimpleScalar-like execution substrate.

The paper profiles programs with the Wattch power/performance simulator on
SimpleScalar.  This subpackage is the reproduction's equivalent: an
instruction-level timing and energy simulator for the :mod:`repro.ir` ISA
with the same modelling assumptions the paper's analysis rests on:

1. program logical behaviour does not change with frequency;
2. main memory is asynchronous with the CPU (miss latency is wall-clock,
   not cycles);
3. the clock is gated while the processor waits (no energy during stalls);
4. frequency and voltage obey the alpha-power law ``f = k (V - Vt)^a / V``;
5. per-activation energy is ``c_eff * V²`` (Wattch-style class energies).

Key entry points:

* :class:`~repro.simulator.config.MachineConfig` — cache/memory/energy
  parameters (``PAPER_CONFIG`` mirrors the paper's Table 2; the default
  ``SCALE_CONFIG`` shrinks caches so laptop-scale workloads exhibit the
  same hit/miss regimes).
* :class:`~repro.simulator.dvs.ModeTable` — discrete (V, f) operating
  points, including the paper's XScale-like 3-level table and generated
  7/13-level tables on the alpha-power curve.
* :class:`~repro.simulator.machine.Machine` — executes a CFG under a DVS
  schedule, returning wall time, CPU energy, per-block/edge/path counts.
"""

import importlib

#: Public names and their modules, imported on first use: a caller that
#: needs only the mode tables does not load the machine.
_LAZY = {
    "MachineConfig": "config",
    "PAPER_CONFIG": "config",
    "SCALE_CONFIG": "config",
    "Cache": "cache",
    "CacheHierarchy": "cache",
    "OperatingPoint": "dvs",
    "ModeTable": "dvs",
    "TransitionCostModel": "dvs",
    "XSCALE_3": "dvs",
    "make_mode_table": "dvs",
    "EnergyModel": "energy",
    "Machine": "machine",
    "RunResult": "machine",
    "Phase": "trace",
    "hottest_blocks": "trace",
    "mode_residency": "trace",
    "phases": "trace",
    "render_timeline": "trace",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = [
    "Cache",
    "CacheHierarchy",
    "EnergyModel",
    "Machine",
    "MachineConfig",
    "ModeTable",
    "OperatingPoint",
    "PAPER_CONFIG",
    "Phase",
    "RunResult",
    "SCALE_CONFIG",
    "TransitionCostModel",
    "XSCALE_3",
    "hottest_blocks",
    "make_mode_table",
    "mode_residency",
    "phases",
    "render_timeline",
]
