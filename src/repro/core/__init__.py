"""The paper's primary contribution.

* :mod:`repro.core.analytical` — the Section 3 analytical model: upper
  bounds on energy savings from compile-time intra-program DVS under
  continuous and discrete voltage scaling.
* :mod:`repro.core.milp` — the Section 4 MILP formulation: edge-grain
  mode-set placement with transition costs, edge filtering and multiple
  input-data categories.
* :mod:`repro.core.scheduler` — the high-level pipeline tying profiling,
  formulation, solving and schedule verification together.
"""

import importlib

#: Public names and their modules, imported on first use: the scheduler
#: loads the profiler, the simulator and the MILP stack.
_LAZY = {
    "DVSOptimizer": "scheduler",
    "OptimizationOutcome": "scheduler",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = ["DVSOptimizer", "OptimizationOutcome"]
