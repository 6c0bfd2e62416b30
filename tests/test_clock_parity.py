"""The clock table against a brute-force closure, and decode round trips.

A seeded loop builds 400 computations with multicast sends, receives of
several messages, ``send_receive`` events, same-process messages and
processes holding only their initial event.  For each one the clock
table must equal the event counts of a brute-force transitive closure of
local order plus message edges, and ``load_computation`` of the dumped
file must reproduce the computation field by field.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

import pytest

from repro.computation import Computation
from repro.events import Event, EventKind
from repro.trace import dump_computation, load_computation

SEEDS = range(400)


def build(seed: int) -> Computation:
    """A random acyclic computation exercising every message shape."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    lengths = [rng.choice([0, 0, 1, 3, 5, 7]) for _ in range(n)]
    # A random interleaving orders all non-initial events; messages only
    # go forward in it, so the computation is acyclic.
    order = [(p, i) for p in range(n) for i in range(1, lengths[p] + 1)]
    rng.shuffle(order)
    for p in range(n):
        slots = sorted(k for k, (q, _) in enumerate(order) if q == p)
        for i, k in enumerate(slots, start=1):
            order[k] = (p, i)
    messages: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    for k, send in enumerate(order):
        later = order[k + 1 :]
        if not later or rng.random() < 0.5:
            continue
        # One to three receivers: multicast when more than one.
        for recv in rng.sample(later, min(len(later), rng.randint(1, 3))):
            messages.append((send, recv))
    senders = {send for send, _ in messages}
    receivers = {recv for _, recv in messages}
    process_events = []
    for p in range(n):
        events = [Event(p, 0, EventKind.INITIAL, {"x": False, "v": 0})]
        for i in range(1, lengths[p] + 1):
            sends, receives = (p, i) in senders, (p, i) in receivers
            if sends and receives:
                kind = EventKind.SEND_RECEIVE
            elif sends:
                kind = rng.choice([EventKind.SEND, EventKind.SEND_RECEIVE])
            elif receives:
                kind = rng.choice([EventKind.RECEIVE, EventKind.SEND_RECEIVE])
            else:
                kind = rng.choice(list(EventKind)[1:])
            values = {"x": rng.random() < 0.5, "v": rng.randint(-3, 3)}
            if rng.random() < 0.2:
                values["w"] = [rng.random(), None, "s"]
            label = f"e{p}_{i}" if rng.random() < 0.3 else None
            events.append(Event(p, i, kind, values, label))
        process_events.append(events)
    meta = {"seed": seed, "faults": {"crash": [seed % 3]}} if seed % 4 else None
    return Computation(process_events, messages, meta=meta)


def brute_force_clocks(comp: Computation) -> List[List[Tuple[int, ...]]]:
    """Clock table from explicit reachability over the event graph."""
    n = comp.num_processes
    preds: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
    for p in range(n):
        for i in range(2, len(comp.events_of(p))):
            preds.setdefault((p, i), set()).add((p, i - 1))
    for send, recv in comp.messages:
        preds.setdefault(recv, set()).add(send)
    table = []
    for p in range(n):
        rows = [tuple(1 if q == p else 0 for q in range(n))]
        for i in range(1, len(comp.events_of(p))):
            seen = {(p, i)}
            stack = [(p, i)]
            while stack:
                for pred in preds.get(stack.pop(), ()):
                    if pred not in seen:
                        seen.add(pred)
                        stack.append(pred)
            # Every initial event precedes every non-initial one, so each
            # component counts one initial event plus the reached events.
            rows.append(
                tuple(
                    1 + max((j for q2, j in seen if q2 == q), default=0)
                    for q in range(n)
                )
            )
        table.append(rows)
    return table


def test_generator_covers_every_message_shape():
    shapes = set()
    for seed in SEEDS:
        comp = build(seed)
        sends = [send for send, _ in comp.messages]
        recvs = [recv for _, recv in comp.messages]
        if len(set(sends)) < len(sends):
            shapes.add("multicast")
        if len(set(recvs)) < len(recvs):
            shapes.add("multi-receive")
        if any(s[0] == r[0] for s, r in comp.messages):
            shapes.add("same-process")
        for p in range(comp.num_processes):
            if len(comp.events_of(p)) == 1:
                shapes.add("initial-only")
            if any(ev.kind is EventKind.SEND_RECEIVE for ev in comp.events_of(p)):
                shapes.add("send_receive")
    assert shapes == {
        "multicast", "multi-receive", "same-process", "initial-only",
        "send_receive",
    }


@pytest.mark.parametrize("block", range(4))
def test_clock_table_matches_brute_force_closure(block):
    for seed in SEEDS[block::4]:
        comp = build(seed)
        assert comp._clk == brute_force_clocks(comp), seed


@pytest.mark.parametrize("block", range(4))
def test_dump_load_round_trip_is_field_exact(tmp_path, block):
    for seed in SEEDS[block::4]:
        comp = build(seed)
        path = tmp_path / f"trace-{seed}.json"
        dump_computation(comp, path)
        loaded = load_computation(path)
        assert loaded.num_processes == comp.num_processes
        for p in range(comp.num_processes):
            assert loaded.events_of(p) == comp.events_of(p), seed
        assert loaded.messages == comp.messages, seed
        assert dict(loaded.meta) == dict(comp.meta), seed
        assert loaded._clk == comp._clk, seed
