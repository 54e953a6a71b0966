"""Profiling: the data the MILP formulation and analytical model consume.

The paper's flow (Figure 13) profiles a program once per DVS mode to obtain
per-region execution time ``T_jm`` and energy ``E_jm``, plus edge counts
``G_ij`` and local-path counts ``D_hij`` (which need only one run).  This
package reproduces that flow on the :mod:`repro.simulator` substrate:

* :func:`~repro.profiling.profiler.profile_program` runs a CFG once per
  mode and assembles a :class:`~repro.profiling.profile_data.ProfileData`;
* :func:`~repro.profiling.params_extract.extract_params` reduces a run to
  the four analytical-model parameters of Section 3.2.
"""

import importlib

#: Public names and their modules, imported on first use: reading a
#: profile does not load the profiler or the simulator.
_LAZY = {
    "BlockModeData": "profile_data",
    "ProfileData": "profile_data",
    "profile_program": "profiler",
    "extract_params": "params_extract",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = ["BlockModeData", "ProfileData", "extract_params", "profile_program"]
