"""JSON (de)serialization of computations.

The on-disk format is deliberately simple and stable so traces recorded by
other tooling can be imported::

    {
      "format": "repro-trace-v1",
      "processes": [
        [ {"kind": "initial", "values": {...}},
          {"kind": "send", "values": {...}, "label": "f"}, ... ],
        ...
      ],
      "messages": [ [[1, 1], [2, 1]], ... ],
      "meta": {"faults": {...}}          # optional provenance metadata
    }

Only JSON-representable variable values survive a round trip (bool, int,
float, str, None, and nested lists/dicts thereof) — which covers every
predicate in this library.

Malformed payloads raise :class:`TraceFormatError` (a ``ValueError``) with
a message naming the file, the offending key, and the expected shape —
never a raw ``KeyError``/``TypeError``.  Payloads that parse but violate
the computation's *semantic* rules (dangling message endpoints, cyclic
dependencies, ...) still raise the usual
:class:`~repro.computation.errors.ComputationError` subclasses.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.computation import Computation
from repro.events import Event, EventKind

__all__ = [
    "TraceFormatError",
    "computation_to_dict",
    "computation_from_dict",
    "dump_computation",
    "load_computation",
]

FORMAT = "repro-trace-v1"

#: Event kinds by their trace spelling; misses fall back to ``EventKind()``.
_KINDS = {kind.value: kind for kind in EventKind}


class TraceFormatError(ValueError):
    """A trace payload is structurally malformed (bad JSON shape)."""


def computation_to_dict(computation: Computation) -> Dict[str, Any]:
    """Serialize to a JSON-compatible dictionary."""
    processes: List[List[Dict[str, Any]]] = []
    for p in range(computation.num_processes):
        events: List[Dict[str, Any]] = []
        for ev in computation.events_of(p):
            record: Dict[str, Any] = {
                "kind": ev.kind.value,
                "values": dict(ev.values),
            }
            if ev.label is not None:
                record["label"] = ev.label
            events.append(record)
        processes.append(events)
    payload: Dict[str, Any] = {
        "format": FORMAT,
        "processes": processes,
        "messages": [
            [list(send), list(recv)] for send, recv in computation.messages
        ],
    }
    if computation.meta:
        payload["meta"] = dict(computation.meta)
    return payload


def _parse_endpoint(entry: Any, m: int, role: str, fail: "_Fail") -> tuple:
    """``entry`` as a ``(process, index)`` pair of plain integers."""
    if type(entry) is list and len(entry) == 2:
        process, index = entry
        if type(process) is int and type(index) is int:
            return (process, index)
    what = f"message {m} {role} endpoint"
    if (
        not isinstance(entry, Sequence)
        or isinstance(entry, (str, bytes))
        or len(entry) != 2
    ):
        fail(f"{what} must be a [process, index] pair, got {entry!r}")
    process, index = entry
    for part in (process, index):
        if isinstance(part, bool) or not isinstance(part, int):
            fail(f"{what} components must be integers, got {entry!r}")
    return (process, index)


def _is_list(value: Any) -> bool:
    """True for a list or any other non-string sequence."""
    return type(value) is list or (
        isinstance(value, Sequence) and not isinstance(value, (str, bytes))
    )


def _event_kind(raw: Any, p: int, i: int, fail: "_Fail") -> EventKind:
    """Look up a kind missing from ``_KINDS`` (an ``EventKind``, or bad)."""
    try:
        return EventKind(raw)
    except ValueError:
        fail(
            f"process {p}, event {i}: unknown event kind {raw!r} "
            f"(expected one of {sorted(k.value for k in EventKind)})"
        )


class _Fail:
    """Raises :class:`TraceFormatError` with an optional source prefix."""

    def __init__(self, source: Optional[str]):
        self._prefix = f"{source}: " if source else ""

    def __call__(self, message: str) -> None:
        raise TraceFormatError(self._prefix + message)


def computation_from_dict(
    data: Mapping[str, Any], source: Optional[str] = None
) -> Computation:
    """Deserialize a computation; validates structure and format tag.

    ``dict`` and ``list`` (what :func:`json.load` returns) are tested by
    exact type first; any other ``Mapping`` or non-string ``Sequence``
    (a ``MappingProxyType``, a tuple, ...) is accepted the same way.
    Error messages are built only once a check has failed.

    Args:
        data: The parsed JSON payload.
        source: Optional provenance (e.g. a file name) prefixed to error
            messages.

    Raises:
        TraceFormatError: If the payload shape is malformed.
        ComputationError: If the payload parses but describes an invalid
            computation (bad message endpoints, cycles, ...).
    """
    fail = _Fail(source)
    if type(data) is not dict and not isinstance(data, Mapping):
        fail(f"trace must be a JSON object, got {type(data).__name__}")
    fmt = data.get("format")
    if fmt != FORMAT:
        fail(f"unsupported trace format {fmt!r}; expected {FORMAT!r}")
    if "processes" not in data:
        fail("missing required key 'processes'")
    raw_processes = data["processes"]
    if not _is_list(raw_processes):
        fail(
            "'processes' must be a list of per-process event lists, got "
            f"{type(raw_processes).__name__}"
        )
    process_events: List[List[Event]] = []
    for p, records in enumerate(raw_processes):
        if not _is_list(records):
            fail(
                f"process {p}: events must be a list, got "
                f"{type(records).__name__}"
            )
        events: List[Event] = []
        for i, record in enumerate(records):
            if type(record) is not dict and not isinstance(record, Mapping):
                fail(
                    f"process {p}, event {i}: expected an object, got "
                    f"{type(record).__name__}"
                )
            if "kind" not in record:
                fail(f"process {p}, event {i}: missing required key 'kind'")
            raw_kind = record["kind"]
            try:
                kind = _KINDS[raw_kind]
            except (KeyError, TypeError):
                kind = _event_kind(raw_kind, p, i, fail)
            values = record.get("values", {})
            if type(values) is not dict and not isinstance(values, Mapping):
                fail(
                    f"process {p}, event {i}: 'values' must be an object, "
                    f"got {type(values).__name__}"
                )
            label = record.get("label")
            if label is not None and not isinstance(label, str):
                fail(
                    f"process {p}, event {i}: 'label' must be a string, "
                    f"got {label!r}"
                )
            events.append(Event(p, i, kind, dict(values), label))
        process_events.append(events)
    raw_messages = data.get("messages", [])
    if not _is_list(raw_messages):
        fail(f"'messages' must be a list, got {type(raw_messages).__name__}")
    messages = []
    for m, entry in enumerate(raw_messages):
        if not _is_list(entry) or len(entry) != 2:
            fail(
                f"message {m} must be a [send, receive] pair, got {entry!r}"
            )
        send = _parse_endpoint(entry[0], m, "send", fail)
        recv = _parse_endpoint(entry[1], m, "receive", fail)
        messages.append((send, recv))
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, Mapping):
        fail(f"'meta' must be an object, got {type(meta).__name__}")
    return Computation(process_events, messages, meta=meta)


def dump_computation(
    computation: Computation, path: Union[str, Path]
) -> None:
    """Write the computation as JSON to ``path``."""
    payload = computation_to_dict(computation)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_computation(path: Union[str, Path]) -> Computation:
    """Read a computation previously written by :func:`dump_computation`.

    Raises:
        TraceFormatError: On an unreadable file, invalid JSON, or a
            malformed payload — always with the file name in the message.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TraceFormatError(f"{path}: cannot read trace: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: invalid JSON: {exc}") from exc
    return computation_from_dict(data, source=str(path))
