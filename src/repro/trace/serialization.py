"""JSON serialization of computations.

Recorded runs are plain data; persisting them lets benchmark workloads
be archived and examples ship canned traces.  Variable values must be
JSON-representable (the generators only use booleans and numbers).
"""

from __future__ import annotations

import json
from typing import Any

from repro.common.errors import SerializationError
from repro.trace.computation import Computation
from repro.trace.events import EMPTY_UPDATES, Event, EventKind, ProcessTrace

__all__ = ["computation_to_dict", "computation_from_dict", "dumps", "loads"]

_FORMAT_VERSION = 1
#: Serialized ``kind`` string -> event kind.
_KINDS = {kind.value: kind for kind in EventKind}


def computation_to_dict(computation: Computation) -> dict[str, Any]:
    """Encode a computation as a JSON-compatible dictionary."""
    processes = []
    for trace in computation.processes:
        events = []
        for event in trace.events:
            entry: dict[str, Any] = {"kind": event.kind.value}
            if event.msg_id is not None:
                entry["msg_id"] = event.msg_id
            if event.peer is not None:
                entry["peer"] = event.peer
            if event.updates:
                entry["updates"] = dict(event.updates)
            if event.time is not None:
                entry["time"] = event.time
            events.append(entry)
        processes.append(
            {"initial_vars": dict(trace.initial_vars), "events": events}
        )
    return {"version": _FORMAT_VERSION, "processes": processes}


def computation_from_dict(data: dict[str, Any]) -> Computation:
    """Decode a computation from :func:`computation_to_dict` output.

    Raises :class:`SerializationError` on malformed input; structural
    validation (message matching, acyclicity) is re-run on construction.
    """
    try:
        version = data["version"]
        if version != _FORMAT_VERSION:
            raise SerializationError(f"unsupported format version {version!r}")
        traces = []
        for proc in data["processes"]:
            events = []
            for entry in proc["events"]:
                value = entry["kind"]
                try:
                    kind = _KINDS[value]
                except (KeyError, TypeError):
                    # Unknown or unhashable: let the enum word the error.
                    kind = EventKind(value)
                events.append(
                    Event(
                        kind,
                        entry.get("msg_id"),
                        entry.get("peer"),
                        entry.get("updates", EMPTY_UPDATES),
                        entry.get("time"),
                    )
                )
            traces.append(
                ProcessTrace(tuple(events), proc.get("initial_vars", {}))
            )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed computation document: {exc}") from exc
    return Computation(traces)


def dumps(computation: Computation, indent: int | None = None) -> str:
    """Serialize a computation to a JSON string."""
    return json.dumps(computation_to_dict(computation), indent=indent)


def loads(text: str) -> Computation:
    """Deserialize a computation from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return computation_from_dict(data)
