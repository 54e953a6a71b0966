"""Fault tolerance across the optimization pipeline.

The MILP of Sections 4–5 is only usable inside a compiler if it always
yields *some* feasible mode schedule within a compile-time budget, and a
long experiment sweep is only usable on real infrastructure if a crash,
a corrupted artifact or a hung solver degrades the run instead of
destroying it.  This package supplies those guarantees:

* :mod:`repro.resilience.anytime` — budgeted solving with a fallback
  chain (HiGHS → native simplex+B&B incumbent → greedy heuristic); every
  call returns a feasible, independently checked schedule annotated with
  the tier that produced it and its optimality gap;
* :mod:`repro.resilience.journal` — the crash-safe sweep journal behind
  ``repro sweep --resume``: completed tasks are recorded with an atomic,
  fsynced append, so a SIGKILL'd sweep resumes without repeating work
  and reproduces byte-identical results;
* :mod:`repro.resilience.faultplane` — the one fault injector: a
  deterministic seeded :class:`~repro.resilience.faultplane.FaultPlan`
  schedules every injectable fault point (cache corruption, torn
  journal writes, task crashes by id glob, worker hangs, solver limits,
  dropped serve connections) and propagates to child processes via
  ``REPRO_FAULTPLAN``; ``--inject-fault PATTERN[@N]`` is an alias for a
  ``worker.crash`` plan;
* :mod:`repro.resilience.campaign` — the one chaos harness behind
  ``repro chaos``, with three scenarios (a faulted sweep over a
  corrupted store, killed warm workers under ``repro serve``, and a
  seeded fault matrix with SIGKILL → ``serve --resume`` cycles) that
  share one fault-free reference, one row comparator and one
  ``campaign.json`` report.

Exit codes (shared with the CLI) live in :data:`EXIT_OK` … so tests,
docs and scripts agree on what "degraded" means.
"""

#: Run finished, nothing failed, no fallbacks engaged.
EXIT_OK = 0
#: Hard failure: an emitted result failed verification, or the command
#: itself could not run.
EXIT_FAILURE = 1
#: Unusable input (missing/unreadable file, malformed flags) — also what
#: argparse uses for usage errors.
EXIT_USAGE = 2
#: The run *completed* but absorbed faults: tasks failed or were
#: skipped, a fallback solver tier produced a schedule, or corrupt cache
#: entries were quarantined.  Every emitted result is still verified.
EXIT_DEGRADED = 3
#: The run was interrupted (SIGINT) after draining in-flight tasks and
#: writing a valid partial journal; resume with ``--resume``.
EXIT_INTERRUPTED = 130

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "EXIT_DEGRADED",
    "EXIT_INTERRUPTED",
]
