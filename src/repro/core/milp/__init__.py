"""The paper's Section 4 MILP formulation and its supporting passes.

* :mod:`.transition` — the regulator transition-cost constants
  (CE = c·(1−u), CT = 2c/Imax) in the linearized form of Section 4.2;
* :mod:`.formulation` — edge-based mode variables ``k_ijm``, linearized
  ``|ΔV²|``/``|ΔV|`` transition terms over profiled local paths, and the
  deadline constraint;
* :mod:`.filtering` — Section 5.2's energy-tail edge filtering, which
  ties low-energy edges' mode variables to their dominant incoming edge;
* :mod:`.multidata` — Section 4.3's weighted multi-input-category
  objective with per-category deadlines;
* :mod:`.schedule` — the executable result: an edge → mode map, plus the
  silent-mode-set hoisting post-pass sketched in Section 4.2.
"""

import importlib

from repro.core.milp.filtering import FilterResult, filter_edges
from repro.core.milp.schedule import DVSSchedule
from repro.core.milp.transition import TransitionCosts

#: Names whose modules build solver models (numpy): imported on first use,
#: so the schedule and filtering types load without the solver stack.
_LAZY = {
    "CategoryProfile": "multidata",
    "FormulationOptions": "formulation",
    "MilpFormulation": "formulation",
    "build_formulation": "formulation",
    "build_multidata_formulation": "multidata",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = [
    "CategoryProfile",
    "DVSSchedule",
    "FilterResult",
    "FormulationOptions",
    "MilpFormulation",
    "TransitionCosts",
    "build_formulation",
    "build_multidata_formulation",
    "filter_edges",
]
