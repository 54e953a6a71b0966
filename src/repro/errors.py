"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch package failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class IRError(ReproError):
    """Malformed intermediate representation (CFG, block, instruction)."""


class IRValidationError(IRError):
    """A structural invariant of the IR was violated."""


class LangError(ReproError):
    """Base class for frontend (lexer/parser/sema) failures."""


class LexError(LangError):
    """The lexer hit a character sequence it cannot tokenize."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ParseError(LangError):
    """The parser hit an unexpected token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class SemanticError(LangError):
    """Name-resolution or type errors in the source program."""


class SimulationError(ReproError):
    """The machine simulator hit an invalid runtime state."""


class ProfileError(ReproError):
    """Profiling data is missing or inconsistent."""


class SolverError(ReproError):
    """Base class for mathematical-programming failures."""


class InfeasibleError(SolverError):
    """The LP/MILP has no feasible point."""


class UnboundedError(SolverError):
    """The LP/MILP objective is unbounded below."""


class SolverLimitError(SolverError):
    """Iteration/node limit was exhausted before proving optimality."""


class ModelError(SolverError):
    """The optimization model itself is malformed."""


class ScheduleError(ReproError):
    """A DVS schedule is inconsistent with the program it targets."""


class VerificationError(ReproError):
    """An independent verification check (certificate, schedule check or
    oracle) rejected a pipeline result."""


class AnalysisError(ReproError):
    """Analytical-model inputs are outside the modelled regime."""


class OrchestrationError(ReproError):
    """The experiment runtime (task DAG, executor, sweep) hit an invalid
    state: malformed graph, unresolvable dependency, bad grid config."""


class TaskTimeout(OrchestrationError):
    """A runtime task exceeded its per-task wall-clock budget."""


class InjectedFault(OrchestrationError):
    """A deliberately injected task failure (fault-injection testing)."""


class JournalError(OrchestrationError):
    """The crash-safe sweep journal is unusable for the requested resume
    (format drift, or a fingerprint from a different sweep grid or
    artifact KEY_VERSION)."""


class CacheError(ReproError):
    """The content-addressed artifact store is unusable or inconsistent."""


class ServeError(ReproError):
    """The optimization service (:mod:`repro.serve`) hit an invalid
    state: malformed configuration, an unusable listener, or a broken
    client conversation."""


class ProtocolError(ServeError):
    """A service request failed validation.

    Carries the HTTP status the server should answer with; defaults to
    400 (bad request).
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status
