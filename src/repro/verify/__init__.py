"""Independent verification of the DVS optimization pipeline.

The solver, the MILP formulation and the scheduler are all nontrivial
code; this package cross-checks their outputs without trusting any of
them:

* :mod:`repro.verify.tolerances` — the single source of truth for every
  float comparison the pipeline makes, and the one check per property;
* :mod:`repro.verify.certificate` — re-check a solver
  :class:`~repro.solver.solution.Solution` against the raw model
  (constraint residuals, bounds, integrality, objective recomputation)
  without going through the solver;
* :mod:`repro.verify.schedule_check` — validate a
  :class:`~repro.core.milp.schedule.DVSSchedule` against the CFG and the
  profile (real edges, transition costs recomputed from first
  principles, deadline and WCET feasibility);
* :mod:`repro.verify.oracles` — differential oracles: solver backends
  must agree, the simulator must reproduce the predicted energy, the
  Section 3 analytical bound must dominate any achieved MILP savings;
* :mod:`repro.verify.metamorphic` — property transformations: loosening
  the deadline or adding a voltage mode never increases optimal energy,
  edge filtering stays within its threshold, no-op IR passes preserve
  the profile and the schedule;
* :mod:`repro.verify.generators` — the random-program generator shared
  by the hypothesis test suite and the fuzz CLI;
* :mod:`repro.verify.fuzz` — drive seeded random programs through the
  full pipeline and report the first failing oracle with a minimized
  reproducer.

Only the dependency-light layers are re-exported here, and the
certificate (which loads the solver stack) only on first use; the
oracle, metamorphic and fuzz modules import the high-level pipeline and
must be imported explicitly (``import repro.verify.oracles``) to keep
``repro.core.scheduler -> repro.verify.certificate`` cycle-free.
"""

import importlib

from repro.verify.schedule_check import ScheduleCheckReport, check_schedule
from repro.verify import tolerances

_LAZY = {
    "CertificateReport": "certificate",
    "ConstraintViolation": "certificate",
    "verify_certificate": "certificate",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = [
    "CertificateReport",
    "ConstraintViolation",
    "ScheduleCheckReport",
    "check_schedule",
    "tolerances",
    "verify_certificate",
]
