"""The one fault injector.

Every injectable site — cache reads and writes, journal appends, task
attempts, solver dispatch, the serve connection path — is a named point
in :data:`CATALOG`, and one seeded :class:`FaultPlan` decides on exactly
which hits each point fires.  ``--inject-fault PATTERN[@N]`` on
``sweep``, ``taskgraph sweep``, ``serve`` and ``chaos`` is a thin alias
for a plan built by :meth:`FaultPlan.for_tasks`.

* every site calls :func:`fire` (or a helper built on it); with no plan
  installed this is a dictionary miss and an early return;
* a plan is pure data, ``{point: (hit numbers, ...)}``, built explicitly
  or by :meth:`FaultPlan.from_seed`, so any failure replays exactly;
* ``worker.crash`` is decided by the executor's parent at submit time
  (:func:`crash_due`): its hits are the attempt numbers of each task
  whose id matches ``crash_tasks``, so ``@N`` means "the first N
  attempts of every matching task" whichever worker a retry lands on;
* plans reach child processes through ``REPRO_FAULTPLAN``: :func:`install`
  with ``env=True`` exports the plan, and each process loads it on its
  first :func:`fire`.  Hits of the other points count per process; a
  forked worker starts from its parent's counts.

Every injection increments the ``faultplane.injected.<point>`` counter,
which worker transports ship back to the parent like every other observe
counter, so ``/v1/metrics`` and the campaign report can prove which
points were actually exercised.
"""

from __future__ import annotations

import fnmatch
import json
import logging
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro import observe
from repro.errors import OrchestrationError

logger = logging.getLogger(__name__)

#: Environment variable carrying a JSON-encoded plan to child processes.
PLAN_ENV = "REPRO_FAULTPLAN"

#: Registry of injectable fault points: name -> what firing does.
CATALOG: dict[str, str] = {
    "cache.read.corrupt": "damage the artifact file before the store reads it",
    "cache.write.torn": "truncate an artifact file right after its atomic write",
    "io.slow": "sleep plan.slow_s inside artifact store get/put",
    "worker.crash": "fail a task attempt matching plan.crash_tasks (hit = attempt)",
    "worker.hang": "sleep plan.hang_s inside the task timeout window",
    "solver.limit": "raise SolverLimitError before backend dispatch",
    "serve.accept.drop": "close an accepted HTTP connection before reading",
    "serve.read.drop": "drop a parsed HTTP request without answering",
    "serve.write.drop": "abort the connection instead of sending the response",
    "journal.torn": "write only a prefix of a journal append (simulated power loss)",
}


def _canonical_schedule(
    schedule: Mapping[str, Sequence[int]],
) -> dict[str, tuple[int, ...]]:
    out: dict[str, tuple[int, ...]] = {}
    for point, hits in schedule.items():
        if point not in CATALOG:
            raise OrchestrationError(
                f"unknown fault point {point!r}; catalog: {sorted(CATALOG)}"
            )
        cleaned = tuple(sorted({int(h) for h in hits}))
        if any(h < 1 for h in cleaned):
            raise OrchestrationError(
                f"fault point {point!r}: hit numbers are 1-based, got {hits!r}"
            )
        if cleaned:
            out[point] = cleaned
    return out


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, replayable schedule of fault injections.

    Args:
        seed: identity of the plan (recorded in reports; also the RNG
            seed when built via :meth:`from_seed`).
        schedule: mapping of catalog point -> 1-based hit numbers on
            which that point fires.  Hits are counted per process.
            Hits are counted per process, except ``worker.crash``,
            whose hits are per-task attempt numbers.
        hang_s: sleep injected by ``worker.hang``.
        slow_s: sleep injected by ``io.slow``.
        crash_tasks: fnmatch glob over task ids that ``worker.crash``
            targets (e.g. ``"optimize:gsm*"``).
    """

    seed: int
    schedule: dict[str, tuple[int, ...]] = field(default_factory=dict)
    hang_s: float = 0.5
    slow_s: float = 0.05
    crash_tasks: str = "*"

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", _canonical_schedule(self.schedule))

    @classmethod
    def from_seed(
        cls,
        seed: int,
        points: Sequence[str] | None = None,
        max_fires: int = 2,
        horizon: int = 6,
        hang_s: float = 0.5,
        slow_s: float = 0.05,
    ) -> "FaultPlan":
        """Build a plan where every requested point fires 1..max_fires
        times somewhere in its first ``horizon`` hits."""
        rng = random.Random(seed)
        schedule: dict[str, tuple[int, ...]] = {}
        for point in sorted(points if points is not None else CATALOG):
            fires = rng.randint(1, max(1, max_fires))
            fires = min(fires, horizon)
            schedule[point] = tuple(sorted(rng.sample(range(1, horizon + 1), fires)))
        return cls(seed=seed, schedule=schedule, hang_s=hang_s, slow_s=slow_s)

    @classmethod
    def for_tasks(cls, spec: str, attempts: int) -> "FaultPlan":
        """The plan behind ``--inject-fault PATTERN[@N]``: crash the
        first N attempts of every task whose id matches the glob — or,
        for a bare ``PATTERN``, all ``attempts`` (retries + 1) of them."""
        pattern, count = spec, attempts
        if "@" in spec:
            pattern, _, tail = spec.rpartition("@")
            try:
                count = int(tail)
            except ValueError:
                raise OrchestrationError(
                    f"malformed fault spec {spec!r} (want PATTERN or PATTERN@N)"
                ) from None
        return cls(seed=0, schedule={"worker.crash": range(1, count + 1)},
                   crash_tasks=pattern)

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "schedule": {p: list(h) for p, h in self.schedule.items()},
            "hang_s": self.hang_s,
            "slow_s": self.slow_s,
        }
        if self.crash_tasks != "*":
            doc["crash_tasks"] = self.crash_tasks
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as error:
            raise OrchestrationError(f"unparsable fault plan: {error}") from error
        if not isinstance(doc, dict) or not isinstance(doc.get("schedule"), dict):
            raise OrchestrationError("fault plan must be an object with a schedule")
        return cls(
            seed=int(doc.get("seed", 0)),
            schedule={str(p): tuple(h) for p, h in doc["schedule"].items()},
            hang_s=float(doc.get("hang_s", 0.5)),
            slow_s=float(doc.get("slow_s", 0.05)),
            crash_tasks=str(doc.get("crash_tasks", "*")),
        )


class _Runtime:
    """Per-process plan state: the installed plan plus hit counters."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.hits: dict[str, int] = {}
        self.lock = threading.Lock()

    def fire(self, point: str) -> bool:
        scheduled = self.plan.schedule.get(point)
        with self.lock:
            count = self.hits.get(point, 0) + 1
            self.hits[point] = count
        return scheduled is not None and count in scheduled


_runtime: _Runtime | None = None
_env_loaded = False
_state_lock = threading.Lock()


def _current() -> _Runtime | None:
    global _runtime, _env_loaded
    if _runtime is None and not _env_loaded:
        with _state_lock:
            if _runtime is None and not _env_loaded:
                _env_loaded = True
                text = os.environ.get(PLAN_ENV)
                if text:
                    try:
                        _runtime = _Runtime(FaultPlan.from_json(text))
                    except OrchestrationError as error:
                        logger.warning("ignoring %s: %s", PLAN_ENV, error)
    return _runtime


def install(plan: FaultPlan, env: bool = False) -> None:
    """Activate ``plan`` in this process (and, with ``env=True``, export
    it so forked/spawned children pick it up too)."""
    global _runtime, _env_loaded
    with _state_lock:
        _runtime = _Runtime(plan)
        _env_loaded = True
    if env:
        os.environ[PLAN_ENV] = plan.to_json()


@contextmanager
def installed(plan: FaultPlan | None) -> Iterator[None]:
    """Run a block under ``plan`` (in this process only); None is a no-op."""
    if plan is None:
        yield
        return
    install(plan)
    try:
        yield
    finally:
        uninstall()


def uninstall() -> None:
    """Deactivate fault injection and drop the environment export."""
    global _runtime, _env_loaded
    with _state_lock:
        _runtime = None
        _env_loaded = False
    os.environ.pop(PLAN_ENV, None)


def active_plan() -> FaultPlan | None:
    """The plan currently governing this process, if any."""
    runtime = _current()
    return None if runtime is None else runtime.plan


def fire(point: str) -> bool:
    """Count one hit of ``point``; True when the plan says it fires now.

    Unknown points raise :class:`OrchestrationError` even with no plan
    installed, so a typo at an injection site cannot silently disable a
    fault forever.
    """
    if point not in CATALOG:
        raise OrchestrationError(
            f"unknown fault point {point!r}; catalog: {sorted(CATALOG)}"
        )
    runtime = _current()
    if runtime is None:
        return False
    if not runtime.fire(point):
        return False
    observe.add(f"faultplane.injected.{point}")
    logger.warning("faultplane: injected %s (hit %d)",
                   point, runtime.hits.get(point, 0))
    return True


def crash_due(task_id: str, attempt: int) -> bool:
    """The ``worker.crash`` decision for one task attempt.

    Called by the executor's parent at submit time; the worker then
    raises :class:`~repro.errors.InjectedFault` for the attempt.
    """
    runtime = _current()
    if runtime is None:
        return False
    plan = runtime.plan
    hits = plan.schedule.get("worker.crash")
    if (hits is None or attempt not in hits
            or not fnmatch.fnmatchcase(task_id, plan.crash_tasks)):
        return False
    observe.add("faultplane.injected.worker.crash")
    logger.warning("faultplane: injected worker.crash in %s (attempt %d)",
                   task_id, attempt)
    return True


def stall(point: str) -> bool:
    """Latency fault: sleep the plan's duration for ``point`` if it fires."""
    if not fire(point):
        return False
    plan = _current().plan
    time.sleep(plan.slow_s if point == "io.slow" else plan.hang_s)
    return True


def torn_text(text: str, point: str = "journal.torn") -> str | None:
    """Torn-write fault for journal appends.

    Returns the prefix that "made it to disk" when ``point`` fires for
    this append, else None (the append proceeds normally).
    """
    if not fire(point):
        return None
    return text[: max(1, len(text) // 2)]


def damage_file(path: os.PathLike | str,
                rng: random.Random | None = None) -> bool:
    """Shared corruption primitive for the cache points and the chaos
    harness, so "disk damage" means the same thing everywhere.

    Without ``rng`` the file is truncated to half its bytes (a torn
    write).  With ``rng`` a coin flip picks between that and flipping
    one byte in place (bit rot; XOR never maps a byte to itself).
    Returns False when the file is missing or empty.
    """
    try:
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
    except OSError:
        return False
    if not data:
        return False
    if rng is None or len(data) < 2 or rng.random() < 0.5:
        del data[len(data) // 2:]
    else:
        data[rng.randrange(len(data))] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(data)
    return True


__all__ = [
    "CATALOG",
    "PLAN_ENV",
    "FaultPlan",
    "active_plan",
    "crash_due",
    "damage_file",
    "fire",
    "install",
    "installed",
    "stall",
    "torn_text",
    "uninstall",
]
