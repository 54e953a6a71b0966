"""JSON (de)serialization for profiles and schedules.

Profiling is the expensive step of the pipeline, so a real deployment
profiles once and reuses the data; likewise a schedule is the compiler's
deliverable.  Both round-trip through plain JSON dicts here, as do run
summaries and the profiling run's recorded execution stream, which the
scheduled run is timed from.

Edges serialize as ``"src->dst"`` and local paths as ``"h->i->j"``;
block labels must therefore not contain ``"->"`` (the frontend never
emits such labels).
"""

from __future__ import annotations

import base64
import json
import sys
import zlib
from array import array
from dataclasses import asdict
from typing import Any

from repro.errors import ProfileError, ScheduleError, SimulationError
from repro.core.analytical.params import ProgramParams
from repro.core.milp.schedule import DVSSchedule
from repro.profiling.profile_data import BlockModeData, ProfileData

_SEP = "->"
FORMAT_VERSION = 1


def _edge_key(edge: tuple[str, str]) -> str:
    return f"{edge[0]}{_SEP}{edge[1]}"


def _parse_edge(text: str) -> tuple[str, str]:
    parts = text.split(_SEP)
    if len(parts) != 2:
        raise ProfileError(f"malformed edge key {text!r}")
    return parts[0], parts[1]


def profile_to_dict(profile: ProfileData) -> dict[str, Any]:
    """Serialize a profile to a JSON-compatible dict."""
    return {
        "format": FORMAT_VERSION,
        "kind": "profile",
        "name": profile.name,
        "num_modes": profile.num_modes,
        "return_value": profile.return_value,
        "block_counts": dict(profile.block_counts),
        "edge_counts": {_edge_key(e): c for e, c in profile.edge_counts.items()},
        "path_counts": {
            f"{h}{_SEP}{i}{_SEP}{j}": c for (h, i, j), c in profile.path_counts.items()
        },
        "wall_time_s": {str(m): t for m, t in profile.wall_time_s.items()},
        "cpu_energy_nj": {str(m): e for m, e in profile.cpu_energy_nj.items()},
        "per_mode": {
            str(mode): {
                label: [d.total_time_s, d.total_energy_nj, d.count]
                for label, d in blocks.items()
            }
            for mode, blocks in profile.per_mode.items()
        },
        "params": asdict(profile.params) if profile.params is not None else None,
    }


def profile_from_dict(data: dict[str, Any]) -> ProfileData:
    """Rebuild a :class:`ProfileData` from its dict form (validated)."""
    if data.get("kind") != "profile":
        raise ProfileError(f"not a profile document (kind={data.get('kind')!r})")
    if data.get("format") != FORMAT_VERSION:
        raise ProfileError(f"unsupported profile format {data.get('format')!r}")
    profile = ProfileData(name=data["name"], num_modes=int(data["num_modes"]))
    profile.return_value = data.get("return_value")
    profile.block_counts = {k: int(v) for k, v in data["block_counts"].items()}
    profile.edge_counts = {
        _parse_edge(k): int(v) for k, v in data["edge_counts"].items()
    }
    for key, count in data["path_counts"].items():
        parts = key.split(_SEP)
        if len(parts) != 3:
            raise ProfileError(f"malformed path key {key!r}")
        profile.path_counts[(parts[0], parts[1], parts[2])] = int(count)
    profile.wall_time_s = {int(m): float(t) for m, t in data["wall_time_s"].items()}
    profile.cpu_energy_nj = {int(m): float(e) for m, e in data["cpu_energy_nj"].items()}
    for mode, blocks in data["per_mode"].items():
        profile.per_mode[int(mode)] = {
            label: BlockModeData(float(t), float(e), int(c))
            for label, (t, e, c) in blocks.items()
        }
    # Profiles saved before they carried the parameters load without them.
    if data.get("params") is not None:
        profile.params = ProgramParams(**data["params"])
    profile.validate()
    return profile


def schedule_to_dict(schedule: DVSSchedule) -> dict[str, Any]:
    """Serialize a schedule to a JSON-compatible dict."""
    return {
        "format": FORMAT_VERSION,
        "kind": "schedule",
        "num_modes": schedule.num_modes,
        "assignment": {_edge_key(e): m for e, m in schedule.assignment.items()},
    }


def schedule_from_dict(data: dict[str, Any]) -> DVSSchedule:
    if data.get("kind") != "schedule":
        raise ScheduleError(f"not a schedule document (kind={data.get('kind')!r})")
    if data.get("format") != FORMAT_VERSION:
        raise ScheduleError(f"unsupported schedule format {data.get('format')!r}")
    assignment = {
        _parse_edge(key): int(mode) for key, mode in data["assignment"].items()
    }
    return DVSSchedule(assignment=assignment, num_modes=int(data["num_modes"]))


#: The observable facts of one simulated execution that experiment
#: artifacts persist (the full RunResult drags the data memory along).
_RUN_SUMMARY_FIELDS = (
    "return_value",
    "wall_time_s",
    "cpu_energy_nj",
    "memory_energy_nj",
    "transition_energy_nj",
    "transition_time_s",
    "instructions",
    "mem_misses",
    "mode_transitions",
    "modeset_executions",
    "final_mode",
)


def run_summary_to_dict(result) -> dict[str, Any]:
    """Serialize the persistent slice of a simulator ``RunResult``."""
    summary: dict[str, Any] = {"format": FORMAT_VERSION, "kind": "run-summary"}
    for name in _RUN_SUMMARY_FIELDS:
        summary[name] = getattr(result, name)
    return summary


def run_summary_from_dict(data: dict[str, Any]) -> dict[str, Any]:
    """Validate and strip a run-summary document down to its fields."""
    if data.get("kind") != "run-summary":
        raise ProfileError(f"not a run-summary document (kind={data.get('kind')!r})")
    if data.get("format") != FORMAT_VERSION:
        raise ProfileError(f"unsupported run-summary format {data.get('format')!r}")
    missing = [name for name in _RUN_SUMMARY_FIELDS if name not in data]
    if missing:
        raise ProfileError(f"run-summary document is missing fields {missing}")
    return {name: data[name] for name in _RUN_SUMMARY_FIELDS}


#: zlib level of the packed stream arrays: recordings of 340-470 kB
#: shrink to 4-11 kB, in a few milliseconds.
STREAM_ZLIB_LEVEL = 6
#: The :class:`~repro.simulator.machine.StreamBase` fields a stream
#: document carries: what a replay copies into its result or checks.
_STREAM_BASE_FIELDS = ("return_value", "instructions", "cache_cycles",
                       "ifetch_cycles", "dmiss_sync_cycles", "mem_misses")


def _pack(values: array) -> str:
    if sys.byteorder != "little":
        values = array(values.typecode, values)
        values.byteswap()
    return base64.b64encode(
        zlib.compress(values.tobytes(), STREAM_ZLIB_LEVEL)).decode("ascii")


def _unpack(text: str, typecode: str) -> array:
    values = array(typecode)
    values.frombytes(zlib.decompress(base64.b64decode(text, validate=True)))
    if sys.byteorder != "little":
        values.byteswap()
    return values


def stream_to_dict(stream, key: str) -> dict[str, Any]:
    """Serialize a recorded :class:`~repro.simulator.machine.ExecutionStream`.

    The block codes (little-endian uint32) and outcome bytes are
    zlib-packed and base64-encoded; the recording's mode-independent
    facts ride along so a replay of the loaded stream can check itself.
    The in-memory extras (profile dicts, data memory) are not stored.
    ``key`` names what was recorded (the stream's artifact key: program
    source, inputs and cache configuration), so a stream is never
    replayed for another (program, input) pair.
    """
    base = stream.base
    if base is None:
        raise SimulationError("cannot serialize a stream that was never recorded")
    if stream.blocks.itemsize != 4:
        raise SimulationError("stream block codes are not 32-bit on this platform")
    document: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "kind": "stream",
        "recorded": key,
        "name": stream.cfg.name,
        "labels": list(stream.cfg.blocks),
        "block_counts": list(base.block_counts),
    }
    for name in _STREAM_BASE_FIELDS:
        document[name] = getattr(base, name)
    document["blocks"] = _pack(stream.blocks)
    document["outcomes"] = _pack(stream.outcomes)
    return document


def stream_from_dict(data: dict[str, Any], key: str, cfg, config):
    """Rebuild the stream recorded as ``key`` from ``cfg`` on a machine
    with ``config``.

    Raises:
        ProfileError: the document is malformed, corrupt, or records
            another program or input.
    """
    from repro.simulator.machine import ExecutionStream, StreamBase

    if data.get("kind") != "stream":
        raise ProfileError(f"not a stream document (kind={data.get('kind')!r})")
    if data.get("format") != FORMAT_VERSION:
        raise ProfileError(f"unsupported stream format {data.get('format')!r}")
    labels = list(cfg.blocks)
    if (data.get("recorded") != key or data.get("name") != cfg.name
            or data.get("labels") != labels):
        raise ProfileError(
            f"stream of {data.get('name')!r} does not record this run of "
            f"{cfg.name!r}")
    try:
        blocks = _unpack(data["blocks"], "I")
        outcomes = _unpack(data["outcomes"], "B")
        base = StreamBase(block_counts=tuple(int(c) for c in data["block_counts"]),
                          **{name: data[name] for name in _STREAM_BASE_FIELDS})
    except (KeyError, TypeError, ValueError, zlib.error) as error:
        raise ProfileError(
            f"malformed stream document: {type(error).__name__}: {error}") from error
    if (len(base.block_counts) != len(labels) or blocks.itemsize != 4
            or (blocks and max(blocks) >= 2 * len(labels))
            or (outcomes and max(outcomes) > 2)):
        raise ProfileError("stream codes out of range for its program")
    return ExecutionStream(blocks=blocks, outcomes=outcomes, cfg=cfg,
                           base=base, config=config)


def save_profile(profile: ProfileData, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(profile_to_dict(profile), handle)


def load_profile(path: str) -> ProfileData:
    """Load a profile JSON file.

    Raises:
        ProfileError: the file is not valid JSON or not a well-formed
            profile document (truncated downloads, hand-edits, wrong
            file passed to ``--profile``).  OS-level errors (missing
            file, permissions) propagate as :class:`OSError` so callers
            can distinguish "bad content" from "bad path".
    """
    with open(path) as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ProfileError(f"cannot parse profile {path}: {error}") from error
    if not isinstance(data, dict):
        raise ProfileError(f"profile {path} is not a JSON object")
    try:
        return profile_from_dict(data)
    except (KeyError, TypeError, ValueError) as error:
        raise ProfileError(
            f"malformed profile document {path}: {type(error).__name__}: {error}"
        ) from error


def save_schedule(schedule: DVSSchedule, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(schedule_to_dict(schedule), handle)


def load_schedule(path: str) -> DVSSchedule:
    """Load a schedule JSON file (error contract as :func:`load_profile`)."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ScheduleError(f"cannot parse schedule {path}: {error}") from error
    if not isinstance(data, dict):
        raise ScheduleError(f"schedule {path} is not a JSON object")
    try:
        return schedule_from_dict(data)
    except (KeyError, TypeError, ValueError) as error:
        raise ScheduleError(
            f"malformed schedule document {path}: {type(error).__name__}: {error}"
        ) from error
