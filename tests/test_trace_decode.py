"""Every error ``computation_from_dict`` can raise, pinned message by message.

The decoder checks concrete ``dict``/``list`` payloads (what ``json.load``
returns) first and falls back to the ``Mapping``/``Sequence`` checks for
other containers.  These tables pin the exception type and the full
message, ``source`` prefix included, for each malformed shape and each
semantic violation, and check that non-JSON container types decode to
the same computation as the plain payload.
"""

from __future__ import annotations

import collections
from types import MappingProxyType

import pytest

from repro.computation import ComputationError, CyclicComputationError
from repro.trace import (
    TraceFormatError,
    computation_from_dict,
    computation_to_dict,
    load_computation,
)

KINDS = "['initial', 'internal', 'receive', 'send', 'send_receive']"
_DELETE = object()


def base_payload() -> dict:
    """A valid two-process trace: one message from (0, 1) to (1, 1)."""
    return {
        "format": "repro-trace-v1",
        "processes": [
            [
                {"kind": "initial", "values": {"x": False}},
                {"kind": "send", "values": {"x": True}, "label": "f"},
                {"kind": "internal", "values": {"x": False}},
            ],
            [
                {"kind": "initial", "values": {}},
                {"kind": "receive", "values": {"x": True}, "label": "g"},
            ],
        ],
        "messages": [[[0, 1], [1, 1]]],
        "meta": {"note": "decode table"},
    }


def edited(path, value) -> dict:
    """``base_payload()`` with the entry at ``path`` replaced (or deleted)."""
    payload = base_payload()
    node = payload
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return payload


SHAPE_ERRORS = [
    ("non-object", [1, 2], "trace must be a JSON object, got list"),
    (
        "missing-format",
        edited(["format"], _DELETE),
        "unsupported trace format None; expected 'repro-trace-v1'",
    ),
    (
        "wrong-format",
        edited(["format"], "repro-trace-v0"),
        "unsupported trace format 'repro-trace-v0'; expected 'repro-trace-v1'",
    ),
    (
        "missing-processes",
        edited(["processes"], _DELETE),
        "missing required key 'processes'",
    ),
    (
        "processes-dict",
        edited(["processes"], {"0": []}),
        "'processes' must be a list of per-process event lists, got dict",
    ),
    (
        "events-string",
        edited(["processes", 1], "initial"),
        "process 1: events must be a list, got str",
    ),
    (
        "event-not-object",
        edited(["processes", 0, 2], 7),
        "process 0, event 2: expected an object, got int",
    ),
    (
        "missing-kind",
        edited(["processes", 0, 1, "kind"], _DELETE),
        "process 0, event 1: missing required key 'kind'",
    ),
    (
        "kind-unknown",
        edited(["processes", 0, 1, "kind"], "bogus"),
        f"process 0, event 1: unknown event kind 'bogus' (expected one of {KINDS})",
    ),
    (
        "kind-list",
        edited(["processes", 0, 1, "kind"], []),
        f"process 0, event 1: unknown event kind [] (expected one of {KINDS})",
    ),
    (
        "kind-dict",
        edited(["processes", 0, 1, "kind"], {}),
        f"process 0, event 1: unknown event kind {{}} (expected one of {KINDS})",
    ),
    (
        "values-list",
        edited(["processes", 1, 1, "values"], [1]),
        "process 1, event 1: 'values' must be an object, got list",
    ),
    (
        "label-int",
        edited(["processes", 0, 2, "label"], 3),
        "process 0, event 2: 'label' must be a string, got 3",
    ),
    (
        "messages-dict",
        edited(["messages"], {"0": [[0, 1], [1, 1]]}),
        "'messages' must be a list, got dict",
    ),
    (
        "message-three-elements",
        edited(["messages", 0], [[0, 1], [1, 1], [1, 1]]),
        "message 0 must be a [send, receive] pair, got [[0, 1], [1, 1], [1, 1]]",
    ),
    (
        "endpoint-float",
        edited(["messages", 0, 1], [0, 1.0]),
        "message 0 receive endpoint components must be integers, got [0, 1.0]",
    ),
    (
        "endpoint-bool",
        edited(["messages", 0, 0], [True, 1]),
        "message 0 send endpoint components must be integers, got [True, 1]",
    ),
    (
        "endpoint-short",
        edited(["messages", 0, 0], [0]),
        "message 0 send endpoint must be a [process, index] pair, got [0]",
    ),
    (
        "endpoint-string",
        edited(["messages", 0, 1], "01"),
        "message 0 receive endpoint must be a [process, index] pair, got '01'",
    ),
    (
        "meta-list",
        edited(["meta"], ["faults"]),
        "'meta' must be an object, got list",
    ),
]

SEMANTIC_ERRORS = [
    (
        "send-negative-index",
        edited(["messages", 0, 0], [0, -1]),
        ComputationError,
        "message send endpoint (0, -1) unknown",
    ),
    (
        "send-negative-process",
        edited(["messages", 0, 0], [-1, 1]),
        ComputationError,
        "message send endpoint (-1, 1) unknown",
    ),
    (
        "receive-past-end",
        edited(["messages", 0, 1], [1, 2]),
        ComputationError,
        "message receive endpoint (1, 2) unknown",
    ),
    (
        "receive-process-past-end",
        edited(["messages", 0, 1], [2, 1]),
        ComputationError,
        "message receive endpoint (2, 1) unknown",
    ),
    (
        "identical-endpoints",
        edited(["messages", 0], [[0, 1], [0, 1]]),
        ComputationError,
        "message with identical endpoints (0, 1)",
    ),
    (
        "initial-endpoint",
        edited(["messages", 0, 0], [0, 0]),
        ComputationError,
        "initial events cannot exchange messages",
    ),
    (
        "send-kind-receive",
        edited(["processes", 0, 1, "kind"], "receive"),
        ComputationError,
        "event (0, 1) sends a message but has kind receive",
    ),
    (
        "receive-kind-internal",
        edited(["processes", 1, 1, "kind"], "internal"),
        ComputationError,
        "event (1, 1) receives a message but has kind internal",
    ),
    (
        "no-initial-event",
        edited(["processes", 0, 0, "kind"], "internal"),
        ComputationError,
        "first event of process 0 must have kind INITIAL",
    ),
    (
        "initial-event-later",
        edited(["processes", 0, 2, "kind"], "initial"),
        ComputationError,
        "process 0 has an INITIAL event at a non-zero index",
    ),
    (
        "empty-process",
        edited(["processes", 1], []),
        ComputationError,
        "process 1 has no initial event",
    ),
    (
        "no-processes",
        edited(["processes"], []),
        ComputationError,
        "a computation needs at least one process",
    ),
    (
        "two-event-cycle",
        {
            "format": "repro-trace-v1",
            "processes": [
                [{"kind": "initial"}, {"kind": "send_receive"}],
                [{"kind": "initial"}, {"kind": "send_receive"}],
            ],
            "messages": [[[0, 1], [1, 1]], [[1, 1], [0, 1]]],
        },
        CyclicComputationError,
        "event dependencies contain a cycle; only 0 of 2 events orderable",
    ),
]


@pytest.mark.parametrize(
    "payload, message",
    [case[1:] for case in SHAPE_ERRORS],
    ids=[case[0] for case in SHAPE_ERRORS],
)
def test_shape_error_message(payload, message):
    with pytest.raises(TraceFormatError) as info:
        computation_from_dict(payload, source="t.json")
    assert type(info.value) is TraceFormatError
    assert str(info.value) == f"t.json: {message}"


def test_shape_errors_without_source_have_no_prefix():
    for _, payload, message in SHAPE_ERRORS:
        with pytest.raises(TraceFormatError) as info:
            computation_from_dict(payload)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "payload, error, message",
    [case[1:] for case in SEMANTIC_ERRORS],
    ids=[case[0] for case in SEMANTIC_ERRORS],
)
def test_semantic_error_message(payload, error, message):
    # Semantic errors come from the Computation, which knows no source.
    with pytest.raises(ComputationError) as info:
        computation_from_dict(payload, source="t.json")
    assert type(info.value) is error
    assert str(info.value) == message


def test_load_computation_names_the_file(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(TraceFormatError, match="absent.json: cannot read trace"):
        load_computation(missing)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{")
    with pytest.raises(TraceFormatError) as info:
        load_computation(garbled)
    assert str(info.value).startswith(f"{garbled}: invalid JSON: ")
    bad_kind = tmp_path / "bad_kind.json"
    bad_kind.write_text(
        '{"format": "repro-trace-v1", "processes": [[{"kind": "nope"}]]}'
    )
    with pytest.raises(TraceFormatError) as info:
        load_computation(bad_kind)
    assert str(info.value) == (
        f"{bad_kind}: process 0, event 0: unknown event kind 'nope' "
        f"(expected one of {KINDS})"
    )


def assert_same_computation(got, want):
    assert computation_to_dict(got) == computation_to_dict(want)
    assert got.messages == want.messages
    assert dict(got.meta) == dict(want.meta)
    assert got._clk == want._clk
    for p in range(want.num_processes):
        for ev_got, ev_want in zip(got.events_of(p), want.events_of(p)):
            assert ev_got == ev_want
            assert type(ev_got.values) is dict


def as_tuples(value):
    """Lists become tuples, recursively; dicts keep their type."""
    if isinstance(value, list):
        return tuple(as_tuples(item) for item in value)
    if isinstance(value, dict):
        return {key: as_tuples(item) for key, item in value.items()}
    return value


def as_proxies(value):
    """Dicts become read-only ``MappingProxyType`` views, recursively."""
    if isinstance(value, list):
        return [as_proxies(item) for item in value]
    if isinstance(value, dict):
        return MappingProxyType(
            {key: as_proxies(item) for key, item in value.items()}
        )
    return value


def as_user_dicts(value):
    """Dicts become ``collections.UserDict``, recursively."""
    if isinstance(value, list):
        return [as_user_dicts(item) for item in value]
    if isinstance(value, dict):
        return collections.UserDict(
            {key: as_user_dicts(item) for key, item in value.items()}
        )
    return value


@pytest.mark.parametrize(
    "convert", [as_tuples, as_proxies, as_user_dicts],
    ids=["tuple-of-tuples", "mapping-proxy", "user-dict"],
)
def test_abstract_containers_decode_like_plain_payload(convert):
    plain = computation_from_dict(base_payload())
    assert_same_computation(computation_from_dict(convert(base_payload())), plain)


def test_abstract_containers_keep_error_messages():
    payload = as_tuples(edited(["processes", 0, 1, "kind"], "bogus"))
    with pytest.raises(TraceFormatError) as info:
        computation_from_dict(MappingProxyType(payload), source="t.json")
    assert str(info.value) == (
        f"t.json: process 0, event 1: unknown event kind 'bogus' "
        f"(expected one of {KINDS})"
    )
    payload = as_user_dicts(edited(["messages", 0, 1], (0, 1.0)))
    with pytest.raises(TraceFormatError) as info:
        computation_from_dict(payload, source="t.json")
    assert str(info.value) == (
        "t.json: message 0 receive endpoint components must be integers, "
        "got (0, 1.0)"
    )


def test_event_kind_members_are_accepted():
    # User code may pass EventKind members instead of their string values.
    from repro.events import EventKind

    payload = base_payload()
    for records in payload["processes"]:
        for record in records:
            record["kind"] = EventKind(record["kind"])
    assert_same_computation(
        computation_from_dict(payload), computation_from_dict(base_payload())
    )
