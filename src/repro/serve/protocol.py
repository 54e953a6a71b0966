"""Request validation and canonicalization for the optimization service.

Two endpoints accept work:

``POST /v1/optimize``
    One workload at one deadline::

        {"workload": "adpcm", "deadline_frac": 0.5}

``POST /v1/sweep``
    A grid, exactly like ``repro sweep``::

        {"workloads": ["adpcm", "gsm"], "deadline_fracs": [0.35, 0.7],
         "levels": ["xscale", 7]}

Both reduce to the same **canonical request**: a sorted, deduplicated,
default-filled grid description.  Its SHA-256 digest is the request
key — the single-flight identity used by :mod:`repro.serve.coalesce` —
so two clients submitting the same science (in any field order, with or
without explicit defaults) coalesce onto one DAG run, and the DAG's
tasks land on the same :mod:`repro.runtime.cache` artifact keys a CLI
sweep would use.

``POST /v1/taskgraph``
    A multi-core task-graph grid (:mod:`repro.taskgraph`)::

        {"shapes": ["fork-join"], "tasks": 6, "cores": [1, 2, 4],
         "deadline_fracs": [0.0, 0.5]}

    Canonicalizes to a document tagged ``"type": "taskgraph"`` (the
    single-stream endpoints carry no tag, keeping their stored request
    keys stable), with sorted/deduplicated shape, core and deadline
    axes — so a served taskgraph request lands on the same experiment
    ids (and artifact keys) as ``repro taskgraph sweep`` over the same
    axes.

The grid rules (known workloads, categories and shapes, fractions in
[0, 1], at least two mode levels, at least one core, a positive
capacitance, duplicates merged) belong to the grid values,
:class:`~repro.runtime.dag.StreamGrid` and
:class:`~repro.taskgraph.pipeline.TaskGraphGrid`, which the CLI sweeps
build too: a body and the same axes on the command line are accepted or
refused alike, with the same message.  This module adds only what
belongs to the service: the endpoints' required fields and singular
spellings, the solver hints, and the ceilings on one request (``max_grid``
experiments, :data:`ABSOLUTE_MAX_GRID`, :data:`MAX_GRAPH_TASKS` tasks
per graph, :data:`MAX_CORES` cores).

Optional non-identity fields: ``tenant`` (fair-queueing bucket,
default ``"anon"``) and ``wait`` (block until the job finishes instead
of returning 202).  Neither enters the request key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any

from repro.errors import OrchestrationError, ProtocolError
from repro.runtime.dag import Experiment, Grid, StreamGrid

#: Request schema version (bumped with incompatible changes).
PROTOCOL_VERSION = 1

#: How ``repro serve`` announces its address; spawners parse the line.
LISTEN_PREFIX = "repro serve listening on http://"

#: Hard ceiling on experiments per request regardless of server config.
ABSOLUTE_MAX_GRID = 256

#: Service ceilings on one taskgraph request's graph size and core counts.
MAX_GRAPH_TASKS = 32
MAX_CORES = 64

_BACKENDS = ("auto", "scipy", "native", "continuous")


@dataclass(frozen=True)
class ParsedRequest:
    """A validated, canonicalized submission."""

    canonical: dict[str, Any]  # the identity-defining request document
    request_key: str  # sha256 over the canonical JSON
    tenant: str
    wait: bool
    experiments: tuple[Experiment, ...]
    solver_budget_s: float | None
    solver_backend: str

    @property
    def job_id(self) -> str:
        """Public job identifier (a prefix of the request key)."""
        return f"job-{self.request_key[:16]}"

    @property
    def cost(self) -> int:
        """Fair-queueing cost: the work this request will run.

        Single-stream experiments cost 1 each; taskgraph grid points
        cost their task count (``queue_cost``), so a submission
        sweeping a 12-task graph over 4 deadlines is billed 48, not 4 —
        big graphs cannot starve small tenants at equal priority.
        """
        return sum(spec.queue_cost for spec in self.experiments)


def _fail(message: str) -> None:
    raise ProtocolError(message)


def _budget(value: Any) -> float | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"solver_budget_s must be a number, got {value!r}")
    value = float(value)
    if not value > 0:
        _fail(f"solver_budget_s must be positive, got {value}")
    return value


def _backend(value: Any) -> str:
    if value not in _BACKENDS:
        _fail(f"solver_backend must be one of {_BACKENDS}, got {value!r}")
    return value


def _tenant(value: Any) -> str:
    if value is None:
        return "anon"
    if not isinstance(value, str) or not value or len(value) > 64:
        _fail(f"tenant must be a string of 1-64 characters, got {value!r}")
    return value


def _wait(value: Any) -> bool:
    if value is None:
        return False
    if not isinstance(value, bool):
        _fail(f"wait must be a boolean, got {value!r}")
    return value


#: Singular spellings a body may use for an axis (the plural wins).
_SINGULAR = {"workloads": "workload", "deadline_fracs": "deadline_frac",
             "shapes": "shape"}

#: Fields every endpoint accepts besides its grid's axes.
_SERVICE_FIELDS = {"solver_budget_s", "solver_backend", "tenant", "wait"}

#: Fields an endpoint requires, each as (accepted spellings, message).
_REQUIRED = {
    "sweep": [(("workloads", "workload"), "sweep request needs 'workloads'")],
    "optimize": [(("workload", "workloads"),
                  "optimize request needs a 'workload'"),
                 (("deadline_frac", "deadline_fracs"),
                  "optimize request needs a 'deadline_frac'")],
    "taskgraph": [(("shapes", "shape"), "taskgraph request needs 'shapes'")],
}


def canonical_json(document: dict[str, Any]) -> str:
    """The canonical serialization the request key is computed over."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _grid_class(endpoint: str) -> type[Grid]:
    if endpoint == "taskgraph":
        from repro.taskgraph.pipeline import TaskGraphGrid

        return TaskGraphGrid
    return StreamGrid


def _grid(grid_class: type[Grid], axes: list[str],
          document: dict[str, Any]) -> Grid:
    """The grid the body's axes name; a broken grid rule is a 400."""
    values = {}
    for axis in axes:
        for spelling in (axis, _SINGULAR.get(axis)):
            if spelling in document:
                values[axis] = document[spelling]
                break
    try:
        return grid_class(**values)
    except OrchestrationError as error:
        raise ProtocolError(str(error)) from None


def _taskgraph_ceilings(grid) -> None:
    """The service's limits on one taskgraph grid."""
    if grid.tasks > MAX_GRAPH_TASKS:
        _fail(f"this server accepts graphs of at most {MAX_GRAPH_TASKS} "
              f"tasks, got {grid.tasks}")
    if grid.cores[-1] > MAX_CORES:
        _fail(f"this server accepts at most {MAX_CORES} cores, "
              f"got {grid.cores[-1]}")


def parse_request(body: bytes | str | dict[str, Any],
                  endpoint: str = "sweep",
                  max_grid: int = 64) -> ParsedRequest:
    """Validate a submission body and canonicalize it into a grid.

    Args:
        body: raw JSON bytes/text, or an already-decoded document.
        endpoint: ``"optimize"`` (single workload/deadline fields),
            ``"sweep"`` (plural fields) or ``"taskgraph"``.  The first
            two accept either spelling; the endpoint picks the
            *required* fields.
        max_grid: server-configured ceiling on experiments per request.

    Raises:
        ProtocolError: any malformed field, a grid rule broken, or a
            grid larger than ``max_grid`` (status 400 in every case).
    """
    if isinstance(body, (bytes, str)):
        if not body:
            _fail("empty request body (expected a JSON object)")
        try:
            document = json.loads(body)
        except json.JSONDecodeError as exc:
            _fail(f"request body is not valid JSON: {exc}")
    else:
        document = body
    if not isinstance(document, dict):
        _fail(f"request body must be a JSON object, "
              f"got {type(document).__name__}")
    if endpoint not in _REQUIRED:  # pragma: no cover - internal misuse
        raise ProtocolError(f"unknown endpoint {endpoint!r}", status=404)
    grid_class = _grid_class(endpoint)
    axes = [field.name for field in fields(grid_class)]
    known = (_SERVICE_FIELDS | set(axes)
             | {_SINGULAR[axis] for axis in axes if axis in _SINGULAR})
    unknown = sorted(set(document) - known)
    if unknown:
        _fail(f"unknown request field(s): {', '.join(unknown)}")
    for spellings, message in _REQUIRED[endpoint]:
        if not any(name in document for name in spellings):
            _fail(message)

    grid = _grid(grid_class, axes, document)
    if endpoint == "taskgraph":
        _taskgraph_ceilings(grid)
    canonical: dict[str, Any] = {
        "version": PROTOCOL_VERSION,
        **({"type": "taskgraph"} if endpoint == "taskgraph" else {}),
        **grid.canonical(),
        "solver_budget_s": _budget(document.get("solver_budget_s")),
        "solver_backend": _backend(document.get("solver_backend", "auto")),
    }
    experiments = grid.experiments()
    limit = min(max_grid, ABSOLUTE_MAX_GRID)
    if len(experiments) > limit:
        _fail(f"request grid has {len(experiments)} experiments; "
              f"this server accepts at most {limit} per request")

    key = hashlib.sha256(
        canonical_json(canonical).encode("utf-8")).hexdigest()
    return ParsedRequest(
        canonical=canonical,
        request_key=key,
        tenant=_tenant(document.get("tenant")),
        wait=_wait(document.get("wait")),
        experiments=tuple(experiments),
        solver_budget_s=canonical["solver_budget_s"],
        solver_backend=canonical["solver_backend"],
    )


def from_canonical(document: dict[str, Any], tenant: str = "anon",
                   wait: bool = False) -> ParsedRequest:
    """Re-parse a stored canonical document (job-store recovery).

    The canonical document embeds ``version``, which is not a request
    field, so recovery checks it and strips it before re-running
    :func:`parse_request` — against :data:`ABSOLUTE_MAX_GRID`, not the
    server's configured ceiling, so a job this server already admitted
    is never rejected on resume by a smaller ``max_grid``.  Round-trip
    invariant: the recovered request lands on exactly the key it was
    admitted under.

    Raises:
        ProtocolError: the document is not a dict, speaks a different
            protocol version, or no longer validates (e.g. a workload
            that this build does not ship).
    """
    if not isinstance(document, dict):
        raise ProtocolError(
            f"stored request must be a JSON object, "
            f"got {type(document).__name__}")
    version = document.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"stored request has protocol version {version!r}; "
            f"this build speaks {PROTOCOL_VERSION}")
    # A document's type tag names its endpoint; untagged ones are sweeps.
    endpoint = document.get("type", "sweep")
    body = {key: value for key, value in document.items()
            if key not in ("version", "type")}
    body["tenant"] = tenant
    body["wait"] = wait
    return parse_request(body, endpoint=endpoint, max_grid=ABSOLUTE_MAX_GRID)
