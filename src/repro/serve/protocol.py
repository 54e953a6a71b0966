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

Optional non-identity fields: ``tenant`` (fair-queueing bucket,
default ``"anon"``) and ``wait`` (block until the job finishes instead
of returning 202).  Neither enters the request key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.errors import ProtocolError, ReproError
from repro.runtime.dag import Experiment
from repro.runtime.sweep import SweepConfig, build_grid
from repro.workloads import get_workload

#: Request schema version (bumped with incompatible changes).
PROTOCOL_VERSION = 1

#: How ``repro serve`` announces its address; spawners parse the line.
LISTEN_PREFIX = "repro serve listening on http://"

#: Hard ceiling on experiments per request regardless of server config.
ABSOLUTE_MAX_GRID = 256

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


def _as_list(value: Any, name: str) -> list[Any]:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _workloads(value: Any) -> list[str]:
    names = _as_list(value, "workloads")
    if not names:
        _fail("request selects no workloads")
    out = []
    for name in names:
        if not isinstance(name, str) or not name:
            _fail(f"workload names must be non-empty strings, got {name!r}")
        try:
            get_workload(name)
        except ReproError:
            _fail(f"unknown workload {name!r} (see `repro list`)")
        out.append(name)
    return sorted(set(out))


def _deadline_fracs(value: Any) -> list[float]:
    fracs = _as_list(value, "deadline_fracs")
    if not fracs:
        _fail("request selects no deadline fractions")
    out = []
    for frac in fracs:
        if isinstance(frac, bool) or not isinstance(frac, (int, float)):
            _fail(f"deadline fractions must be numbers, got {frac!r}")
        frac = float(frac)
        if not 0.0 <= frac <= 1.0:
            _fail(f"deadline fraction {frac} outside [0, 1]")
        out.append(frac)
    return sorted(set(out))


def _levels(value: Any) -> list[int | None]:
    if value is None:
        return [None]
    entries = _as_list(value, "levels")
    out: list[int | None] = []
    for entry in entries:
        if entry is None or entry in ("xscale", "xscale-3"):
            out.append(None)
            continue
        if isinstance(entry, bool) or not isinstance(entry, int):
            _fail(f"mode-table levels must be integers or 'xscale', "
                  f"got {entry!r}")
        if entry < 2:
            _fail(f"mode tables need at least 2 levels, got {entry}")
        out.append(entry)
    if not out:
        _fail("request selects no mode tables")
    # None (the XScale-3 table) sorts first; integer tables ascend.
    return sorted(set(out), key=lambda lv: (-1 if lv is None else lv))


def _seed(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"seed must be an integer, got {value!r}")
    return value


def _capacitance(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"capacitance_uf must be a number, got {value!r}")
    value = float(value)
    if not value > 0:
        _fail(f"capacitance_uf must be positive, got {value}")
    return value


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


def _category(value: Any, workloads: list[str]) -> str | None:
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        _fail(f"category must be a non-empty string, got {value!r}")
    for name in workloads:
        if value not in get_workload(name).categories:
            _fail(f"workload {name!r} has no input category {value!r}")
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


def _shapes(value: Any) -> list[str]:
    from repro.taskgraph.model import GRAPH_SHAPES

    names = _as_list(value, "shapes")
    if not names:
        _fail("request selects no graph shapes")
    out = []
    for name in names:
        if name not in GRAPH_SHAPES:
            _fail(f"unknown task-graph shape {name!r} "
                  f"(want one of {', '.join(GRAPH_SHAPES)})")
        out.append(name)
    return sorted(set(out))


def _graph_tasks(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"tasks must be an integer, got {value!r}")
    if not 3 <= value <= 32:
        _fail(f"tasks must be in [3, 32], got {value}")
    return value


def _cores(value: Any) -> list[int]:
    counts = _as_list(value, "cores")
    if not counts:
        _fail("request selects no core counts")
    out = []
    for count in counts:
        if isinstance(count, bool) or not isinstance(count, int):
            _fail(f"core counts must be integers, got {count!r}")
        if not 1 <= count <= 64:
            _fail(f"core counts must be in [1, 64], got {count}")
        out.append(count)
    return sorted(set(out))


_KNOWN_FIELDS = {
    "workload", "workloads", "deadline_frac", "deadline_fracs", "levels",
    "category", "seed", "capacitance_uf", "solver_budget_s",
    "solver_backend", "tenant", "wait",
}

#: Fields the taskgraph endpoint accepts instead of workload selectors.
_TG_FIELDS = {
    "shape", "shapes", "tasks", "cores", "deadline_frac", "deadline_fracs",
    "levels", "seed", "capacitance_uf", "solver_budget_s",
    "solver_backend", "tenant", "wait",
}


def canonical_json(document: dict[str, Any]) -> str:
    """The canonical serialization the request key is computed over."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def parse_request(body: bytes | str | dict[str, Any],
                  endpoint: str = "sweep",
                  max_grid: int = 64) -> ParsedRequest:
    """Validate a submission body and canonicalize it into a grid.

    Args:
        body: raw JSON bytes/text, or an already-decoded document.
        endpoint: ``"optimize"`` (single workload/deadline fields) or
            ``"sweep"`` (plural fields).  Either endpoint accepts either
            spelling; the endpoint only picks the *required* fields.
        max_grid: server-configured ceiling on experiments per request.

    Raises:
        ProtocolError: any malformed field, unknown workload, or a grid
            larger than ``max_grid`` (status 400 in every case).
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
    if endpoint == "taskgraph":
        return _parse_taskgraph(document, max_grid)
    unknown = sorted(set(document) - _KNOWN_FIELDS)
    if unknown:
        _fail(f"unknown request field(s): {', '.join(unknown)}")

    if endpoint == "optimize":
        if "workload" not in document and "workloads" not in document:
            _fail("optimize request needs a 'workload'")
        if ("deadline_frac" not in document
                and "deadline_fracs" not in document):
            _fail("optimize request needs a 'deadline_frac'")
    elif endpoint == "sweep":
        if "workloads" not in document and "workload" not in document:
            _fail("sweep request needs 'workloads'")
    else:  # pragma: no cover - internal misuse
        raise ProtocolError(f"unknown endpoint {endpoint!r}", status=404)

    workloads = _workloads(document.get("workloads",
                                        document.get("workload")))
    fracs = _deadline_fracs(document.get(
        "deadline_fracs", document.get("deadline_frac", [0.35, 0.7])))
    levels = _levels(document.get("levels"))
    category = _category(document.get("category"), workloads)
    seed = _seed(document.get("seed", 0))
    capacitance_uf = _capacitance(document.get("capacitance_uf", 10.0))
    solver_budget_s = _budget(document.get("solver_budget_s"))
    solver_backend = _backend(document.get("solver_backend", "auto"))
    tenant = _tenant(document.get("tenant"))
    wait = _wait(document.get("wait"))

    canonical: dict[str, Any] = {
        "version": PROTOCOL_VERSION,
        "workloads": workloads,
        "deadline_fracs": fracs,
        "levels": ["xscale-3" if lv is None else lv for lv in levels],
        "category": category,
        "seed": seed,
        "capacitance_uf": capacitance_uf,
        "solver_budget_s": solver_budget_s,
        "solver_backend": solver_backend,
    }
    return _parsed(canonical, tenant, wait, max_grid)


def _parse_taskgraph(document: dict[str, Any], max_grid: int) -> ParsedRequest:
    """Validate and canonicalize a ``/v1/taskgraph`` submission."""
    unknown = sorted(set(document) - _TG_FIELDS)
    if unknown:
        _fail(f"unknown request field(s): {', '.join(unknown)}")
    if "shapes" not in document and "shape" not in document:
        _fail("taskgraph request needs 'shapes'")

    shapes = _shapes(document.get("shapes", document.get("shape")))
    tasks = _graph_tasks(document.get("tasks", 6))
    cores = _cores(document.get("cores", [1, 2]))
    fracs = _deadline_fracs(document.get(
        "deadline_fracs", document.get("deadline_frac", [0.35, 0.7])))
    levels = _levels(document.get("levels"))
    seed = _seed(document.get("seed", 0))
    capacitance_uf = _capacitance(document.get("capacitance_uf", 10.0))
    solver_budget_s = _budget(document.get("solver_budget_s"))
    solver_backend = _backend(document.get("solver_backend", "auto"))
    tenant = _tenant(document.get("tenant"))
    wait = _wait(document.get("wait"))

    canonical: dict[str, Any] = {
        "version": PROTOCOL_VERSION,
        "type": "taskgraph",
        "shapes": shapes,
        "tasks": tasks,
        "cores": cores,
        "deadline_fracs": fracs,
        "levels": ["xscale-3" if lv is None else lv for lv in levels],
        "seed": seed,
        "capacitance_uf": capacitance_uf,
        "solver_budget_s": solver_budget_s,
        "solver_backend": solver_backend,
    }
    return _parsed(canonical, tenant, wait, max_grid)


def _parsed(canonical: dict[str, Any], tenant: str, wait: bool,
            max_grid: int) -> ParsedRequest:
    """Expand a canonical document, enforce the grid ceiling and key it."""
    experiments = build_experiments(canonical)
    limit = min(max_grid, ABSOLUTE_MAX_GRID)
    if len(experiments) > limit:
        _fail(f"request grid has {len(experiments)} experiments; "
              f"this server accepts at most {limit} per request")

    key = hashlib.sha256(
        canonical_json(canonical).encode("utf-8")).hexdigest()
    return ParsedRequest(
        canonical=canonical,
        request_key=key,
        tenant=tenant,
        wait=wait,
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


def _stream_grid(canonical: dict[str, Any]) -> list[Experiment]:
    category = canonical["category"]
    return build_grid(SweepConfig(
        workloads=tuple(canonical["workloads"]),
        deadline_fracs=tuple(canonical["deadline_fracs"]),
        levels=_machine_levels(canonical),
        categories=({name: (category,) for name in canonical["workloads"]}
                    if category is not None else {}),
        seed=canonical["seed"],
        capacitance_uf=canonical["capacitance_uf"],
    ))


def _taskgraph_grid(canonical: dict[str, Any]) -> list[Experiment]:
    from repro.taskgraph.pipeline import build_tg_grid

    return build_tg_grid(
        shapes=tuple(canonical["shapes"]),
        tasks=canonical["tasks"],
        cores=tuple(canonical["cores"]),
        deadline_fracs=tuple(canonical["deadline_fracs"]),
        seed=canonical["seed"],
        levels=_machine_levels(canonical),
        capacitance_uf=canonical["capacitance_uf"],
    )


def _machine_levels(canonical: dict[str, Any]) -> tuple[int | None, ...]:
    return tuple(None if lv == "xscale-3" else lv for lv in canonical["levels"])


#: Grid expansion by the canonical document's type tag (None: a sweep).
_GRIDS = {None: _stream_grid, "taskgraph": _taskgraph_grid}


def build_experiments(canonical: dict[str, Any]) -> list[Experiment]:
    """Expand a canonical request into its experiment grid.

    The expansion is the CLI's own (:func:`repro.runtime.sweep.build_grid`
    or :func:`repro.taskgraph.pipeline.build_tg_grid`), so a served
    request and a CLI sweep over the same axes produce the same
    experiment ids (and therefore identical ``results`` rows).
    """
    return _GRIDS[canonical.get("type")](canonical)
