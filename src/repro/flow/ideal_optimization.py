"""Optimizing a sum of local variables over all consistent cuts.

The consistent cuts of a computation are exactly the downward-closed sets
(order ideals) of its event poset that contain every initial event.  For a
sum ``x_1 + ... + x_n`` of integer local variables, each non-initial event
``e`` carries a *delta* — the change it applies to its process's variable —
so the sum at a cut C equals ``sum at the initial cut + sum of deltas of the
non-initial events in C``.

Maximizing a weighted ideal is the classic *maximum-weight closure*
(project-selection) problem, solved exactly by one min-cut:

* source ``s`` connects to every event with positive delta (capacity = delta),
* every event with negative delta connects to sink ``t`` (capacity = -delta),
* every direct dependency ``u -> v`` (u must be in the cut if v is) becomes
  an infinite-capacity edge ``v -> u``.

``max over cuts of sum = initial sum + (sum of positive deltas) - mincut``.
Minimizing is the same computation with negated deltas.  Both run in
polynomial time regardless of the magnitude of the deltas — the paper's
NP-completeness for ``sum = k`` with arbitrary increments (Theorem 2) is
therefore genuinely about hitting a value *exactly*, not about the extremes.

The witness cut (the ideal attaining the optimum) is recovered from the
min-cut's source side.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.computation import Computation, Cut, initial_cut
from repro.events import EventId
from repro.flow.maxflow import MaxFlow

__all__ = [
    "event_deltas",
    "maximize_ideal_weight",
    "max_sum_cut",
    "min_sum_cut",
    "sum_range",
]


def event_deltas(computation: Computation, variable: str) -> Dict[EventId, int]:
    """Per-event change of ``variable`` on the event's own process.

    The delta of event ``(p, i)`` (i >= 1) is ``value after (p, i)`` minus
    ``value after (p, i-1)``; missing values default to 0.
    """
    deltas: Dict[EventId, int] = {}
    for p in range(computation.num_processes):
        events = computation.events_of(p)
        previous = int(events[0].value(variable, 0))
        for ev in events[1:]:
            current = int(ev.value(variable, 0))
            deltas[ev.event_id] = current - previous
            previous = current
    return deltas


def maximize_ideal_weight(
    computation: Computation, weights: Dict[EventId, int]
) -> Tuple[int, Cut]:
    """Maximum total weight of a consistent cut's non-initial events.

    ``weights`` maps every non-initial event id to an integer weight
    (missing events weigh 0).  Returns ``(best weight, witness cut)``.
    """
    # Enumerate non-initial events and their direct dependencies.
    ids: List[EventId] = [ev.event_id for ev in computation.all_events()]
    index = {eid: i for i, eid in enumerate(ids)}
    n = len(ids)
    source, sink = n, n + 1
    positive_total = sum(w for w in weights.values() if w > 0)
    infinite = positive_total + sum(-w for w in weights.values() if w < 0) + 1

    mf = MaxFlow(n + 2)
    for eid in ids:
        w = weights.get(eid, 0)
        if w > 0:
            mf.add_edge(source, index[eid], w)
        elif w < 0:
            mf.add_edge(index[eid], sink, -w)
        # Dependency edges: if eid is selected, its direct causal
        # predecessors must be selected too.
        pred = computation.predecessor(eid)
        if pred is not None and pred[1] >= 1:
            mf.add_edge(index[eid], index[pred], infinite)
        for src in computation.message_sources(eid):
            if src[1] >= 1:
                mf.add_edge(index[eid], index[src], infinite)

    cut_value = mf.solve(source, sink)
    best = positive_total - cut_value
    side = mf.min_cut_source_side(source)
    chosen = {ids[i] for i in side if i < n}

    # Convert the closure into a frontier vector.  A closure is downward
    # closed, so per process the chosen events form a prefix.
    frontier = [1] * computation.num_processes
    for p, i in chosen:
        frontier[p] = max(frontier[p], i + 1)
    witness = Cut(computation, frontier)
    if not witness.is_consistent():
        # Raises rather than asserts, so the check survives ``python -O``.
        raise AssertionError("min-cut produced a non-closed ideal")
    return best, witness


def max_sum_cut(computation: Computation, variable: str) -> Tuple[int, Cut]:
    """``(max over consistent cuts of sum_i variable_i, witness cut)``."""
    deltas = event_deltas(computation, variable)
    base = initial_cut(computation).variable_sum(variable)
    gain, witness = maximize_ideal_weight(computation, deltas)
    return base + gain, witness


def min_sum_cut(computation: Computation, variable: str) -> Tuple[int, Cut]:
    """``(min over consistent cuts of sum_i variable_i, witness cut)``."""
    deltas = {eid: -w for eid, w in event_deltas(computation, variable).items()}
    base = initial_cut(computation).variable_sum(variable)
    gain, witness = maximize_ideal_weight(computation, deltas)
    return base - gain, witness


def sum_range(computation: Computation, variable: str) -> Tuple[int, int]:
    """``(min, max)`` of the variable sum over all consistent cuts."""
    lo, _ = min_sum_cut(computation, variable)
    hi, _ = max_sum_cut(computation, variable)
    return lo, hi
