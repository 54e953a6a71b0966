"""Content-addressed cache keys for experiment artifacts.

Every expensive artifact (a per-mode profile, a MILP schedule, a
simulated run) is stored under a key that *is* a hash of everything the
artifact depends on:

* the workload **source text** (not its name — editing a kernel
  invalidates its artifacts automatically),
* the **input selector** (category, seed),
* the **machine**: cache geometry and energies, DRAM latency, the full
  mode table as (frequency, voltage) pairs, and the regulator transition
  model,
* stage-specific parameters (the deadline fraction for a schedule),
* the serialization :data:`~repro.profiling.serialize.FORMAT_VERSION`
  and this module's :data:`KEY_VERSION`.

Two producers that agree on those inputs — the ``repro profile``/
``repro optimize`` CLI, the benchmark session cache, a parallel sweep —
therefore share cache entries, and any change to the simulator's
observable configuration changes the key rather than silently serving a
stale artifact.

Hashes are SHA-256 over a *canonical* JSON form (sorted keys, no
whitespace, lossless float repr), so key stability does not depend on
dict insertion order or on which process computed the key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import TYPE_CHECKING, Any

from repro.errors import CacheError
from repro.profiling.serialize import FORMAT_VERSION

if TYPE_CHECKING:
    from repro.simulator.config import MachineConfig
    from repro.simulator.dvs import ModeTable, TransitionCostModel
    from repro.simulator.machine import Machine

#: Bumped whenever key semantics change *or* the simulator's numeric
#: outputs change for identical inputs.  v2: compensated (Neumaier)
#: energy accounting and the canonical nJ-space transition-cost path
#: perturb run summaries in the last few ulps, so v1 artifacts must not
#: be served.  v3: schedules carry their canonical price (the integer
#: assignment's objective and deadline row, summed exactly) instead of
#: the backend's floats, which moves the last bits of
#: ``predicted_energy_nj``/``predicted_time_s``.  v4: profiles carry the
#: Section 3.2 parameters of their fastest-mode run (the separate
#: ``params`` artifact is gone), so a v3 profile, which lacks them, must
#: not be served; the sweep journal's fingerprint includes this version
#: too, so ``--resume`` never replays task outputs of another version.
#: The fast path is deliberately *not* part of any key: it is bit-exact,
#: so fast and reference runs share artifacts.
KEY_VERSION = 4


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text for hashing: sorted keys, compact, floats
    via ``repr`` (Python's shortest round-trip form, stable across runs).

    Raises:
        CacheError: the object holds something JSON cannot express
            (a set, an object, NaN/Infinity).
    """
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except (TypeError, ValueError) as error:
        raise CacheError(f"value is not canonically hashable: {error}") from error


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def source_digest(source: str) -> str:
    """SHA-256 of a workload's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def machine_fingerprint(machine: Machine) -> dict[str, Any]:
    """Everything about a :class:`Machine` that can change simulation
    results, as a JSON-compatible dict.

    The mode table is fingerprinted by its numeric (frequency, voltage)
    points, not its display name, so ``make_mode_table(3)`` and a
    hand-built identical table share artifacts.
    """
    return fingerprint_parts(machine.config, machine.mode_table,
                             machine.transition_model)


def fingerprint_parts(config: MachineConfig, mode_table: ModeTable,
                      transition_model: TransitionCostModel) -> dict[str, Any]:
    """:func:`machine_fingerprint` of the machine these parts would
    build, without building it."""
    return {
        "config": asdict(config),
        "modes": [[p.frequency_hz, p.voltage] for p in mode_table],
        "transition": asdict(transition_model),
    }


def _machine_part(machine: Machine | dict[str, Any]) -> dict[str, Any]:
    """A machine's fingerprint; a dict is taken as one already computed
    (:meth:`repro.runtime.dag.MachineSpec.fingerprint` memoizes it)."""
    return machine if isinstance(machine, dict) else machine_fingerprint(machine)


def workload_fingerprint(source: str, category: str | None, seed: int) -> dict[str, Any]:
    """The (program, input) half of an artifact key."""
    return {
        "source_sha256": source_digest(source),
        "category": category,
        "seed": seed,
    }


def artifact_key(kind: str, **parts: Any) -> str:
    """The content address for one artifact kind.

    Args:
        kind: artifact kind tag (``"profile"``, ``"schedule"``,
            ``"run-summary"``, ``"tg-tables"``, ...).
        **parts: the key document fields (fingerprints, stage params).

    Returns:
        A 64-char hex digest; the same inputs always produce the same
        key, in any process on any platform.
    """
    document = {
        "key_version": KEY_VERSION,
        "format": FORMAT_VERSION,
        "kind": kind,
        **parts,
    }
    return stable_hash(document)


def profile_key(source: str, category: str | None, seed: int,
                machine: Machine | dict[str, Any]) -> str:
    """Key for a per-mode :class:`~repro.profiling.profile_data.ProfileData`
    (which carries the program's Section 3.2 parameters).

    Here and in the other keys below ``machine`` is a :class:`Machine`
    or its :func:`machine_fingerprint`.
    """
    return artifact_key(
        "profile",
        workload=workload_fingerprint(source, category, seed),
        machine=_machine_part(machine),
    )


def stream_key(source: str, category: str | None, seed: int,
               machine: Machine) -> str:
    """Key for the recorded execution stream of a profiling run.

    A recording depends on the program, its inputs and the cache
    configuration, never on the mode table or the regulator, so every
    machine with the same configuration shares it.
    """
    return artifact_key(
        "stream",
        workload=workload_fingerprint(source, category, seed),
        config=asdict(machine.config),
    )


def _method_part(method: str) -> dict[str, Any]:
    """Extra key fields for a non-default optimization method.

    MILP backends all return the same proven optimum, so they share one
    identity (and the solver backend/budget stay execution hints).  The
    ``continuous`` method returns a *different* deterministic schedule —
    the continuous round-up — so its artifacts must live under their own
    keys.  The default contributes nothing, keeping existing MILP keys
    byte-stable.
    """
    return {} if method == "milp" else {"method": method}


def schedule_key(source: str, category: str | None, seed: int,
                 machine: Machine | dict[str, Any], deadline_frac: float,
                 method: str = "milp") -> str:
    """Key for an optimized schedule (plus solver stats) at one deadline."""
    return artifact_key(
        "schedule",
        workload=workload_fingerprint(source, category, seed),
        machine=_machine_part(machine),
        deadline_frac=deadline_frac,
        **_method_part(method),
    )


def run_summary_key(source: str, category: str | None, seed: int,
                    machine: Machine | dict[str, Any], deadline_frac: float,
                    method: str = "milp") -> str:
    """Key for the simulated execution of a schedule."""
    return artifact_key(
        "run-summary",
        workload=workload_fingerprint(source, category, seed),
        machine=_machine_part(machine),
        deadline_frac=deadline_frac,
        **_method_part(method),
    )


def taskgraph_tables_key(graph_fingerprint: dict[str, Any],
                         machine: Machine | dict[str, Any]) -> str:
    """Key for a task graph's per-task per-mode tables.

    ``graph_fingerprint`` is :func:`repro.taskgraph.model.graph_fingerprint`
    output — kernel-backed nodes carry source digests, so editing a
    kernel invalidates the tables exactly like ``profile_key`` does.
    Tables are core-count independent (they describe tasks, not lanes).
    """
    return artifact_key(
        "tg-tables",
        graph=graph_fingerprint,
        machine=_machine_part(machine),
    )


def taskgraph_solve_key(graph_fingerprint: dict[str, Any],
                        machine: Machine | dict[str, Any],
                        cores: int, deadline_frac: float) -> str:
    """Key for a solved taskgraph schedule at one (cores, deadline).

    The solver budget and backend are execution knobs (anytime solving
    may degrade, and degraded outputs are never cached), so — like the
    single-stream ``schedule_key`` — they are not part of the identity.
    """
    return artifact_key(
        "tg-solve",
        graph=graph_fingerprint,
        machine=_machine_part(machine),
        cores=cores,
        deadline_frac=deadline_frac,
    )


def taskgraph_run_key(graph_fingerprint: dict[str, Any],
                      machine: Machine | dict[str, Any],
                      cores: int, deadline_frac: float) -> str:
    """Key for the replayed execution of a taskgraph schedule."""
    return artifact_key(
        "tg-run",
        graph=graph_fingerprint,
        machine=_machine_part(machine),
        cores=cores,
        deadline_frac=deadline_frac,
    )
