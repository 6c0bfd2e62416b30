"""`definitely` for conjunctive predicates via false-interval anchors.

``definitely(B)`` fails iff some run avoids B entirely.  For conjunctive B
the avoiding cuts form the union of per-process sublattices
``R_i = {cuts whose process-i frontier event falsifies conjunct i}``, and
within ``R_i`` a run's i-frontier must stay inside one *false interval* —
a maximal run of consecutive events falsifying the conjunct (frontiers
move one event at a time, so leaving an interval means standing on a true
event).

An avoiding run is therefore a **relay of anchors** (process, false
interval):

* it starts anchored at an interval containing the initial event;
* a handoff from anchor ``(i, I)`` to ``(j, J)`` (necessarily ``j != i``:
  a frontier cannot jump between two intervals of its own process without
  standing on a true event in between) happens at a cut where *both* are
  anchored — because consecutive cuts differ in one process only, any
  avoiding run yields such a common cut for each consecutive anchor pair;
* it finishes at an anchor whose interval reaches its process's final
  event: from there every other process can run to completion and the
  anchor process follows, covered throughout.

The search explores the anchor graph, tracking per anchor an antichain of
minimal reachable anchored cuts (smaller cuts dominate: any handoff
feasible from a cut is feasible from any smaller one).  Handoff
feasibility from cut C to ``(j, J)``: the least consistent cut ≥ C with
j's frontier inside J must not overshoot J, nor push the current anchor
past its interval.  The algorithm is exact; its cost is bounded by the
anchor count times the antichain sizes — on every workload we measured it
is orders of magnitude below lattice reachability, and it degrades to
correctness (never to wrong answers) when antichains grow.

This goes beyond the 2001 paper (which focuses on ``possibly``): it is
this library's engine for the Garg–Waldecker *strong* conjunctive
modality, and the tests fuzz it against run enumeration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.computation import Computation
from repro.detection.result import DetectionResult
from repro.obs import StatCounters, span
from repro.perf.causality import CausalityIndex
from repro.predicates.conjunctive import ConjunctivePredicate

__all__ = ["definitely_conjunctive", "false_intervals"]

Frontier = Tuple[int, ...]


@dataclass(frozen=True)
class _Interval:
    """A maximal run of consecutive falsifying events of one process."""

    process: int
    start: int  # first falsifying event index (0 = initial event)
    end: int  # last falsifying event index (inclusive)


def false_intervals(
    computation: Computation, predicate: ConjunctivePredicate
) -> List[_Interval]:
    """All maximal false intervals of the predicate's processes."""
    intervals: List[_Interval] = []
    for conjunct in predicate.conjuncts:
        p = conjunct.process
        events = computation.events_of(p)
        start: Optional[int] = None
        for ev in events:
            if not conjunct.holds_after(ev):
                if start is None:
                    start = ev.index
            elif start is not None:
                intervals.append(_Interval(p, start, ev.index - 1))
                start = None
        if start is not None:
            intervals.append(_Interval(p, start, len(events) - 1))
    return intervals


def _dominates(a: Frontier, b: Frontier) -> bool:
    """True iff a <= b componentwise (a reaches everything b reaches)."""
    return all(x <= y for x, y in zip(a, b))


class _AnchorFrontiers:
    """Antichain of minimal reachable anchored cuts for one anchor."""

    def __init__(self) -> None:
        self.cuts: List[Frontier] = []

    def add(self, frontier: Frontier) -> bool:
        """Insert unless dominated; drop newly dominated members."""
        for existing in self.cuts:
            if _dominates(existing, frontier):
                return False
        self.cuts = [
            existing
            for existing in self.cuts
            if not _dominates(frontier, existing)
        ]
        self.cuts.append(frontier)
        return True


def definitely_conjunctive(
    computation: Computation,
    predicate: ConjunctivePredicate,
) -> DetectionResult:
    """Decide ``definitely`` of a conjunctive predicate exactly.

    The slice of the predicate — exact for conjunctive B — is consulted
    first: an empty slice means no cut satisfies B (every run avoids it,
    False), a least cut equal to ⊥ or a greatest cut equal to ⊤ means an
    endpoint of *every* run satisfies B (True).  Each shortcut is a
    polynomial rounding pass that skips the anchor search entirely,
    reported via the ``slice_shortcut`` stat.
    """
    with span(
        "engine.interval-anchor", conjuncts=len(predicate.conjuncts)
    ) as sp:
        shortcut = _slice_shortcut(computation, predicate, sp)
        if shortcut is not None:
            return shortcut
        return _definitely_conjunctive(computation, predicate, sp)


def _slice_shortcut(
    computation: Computation, predicate: ConjunctivePredicate, sp
) -> Optional[DetectionResult]:
    """Slice-bounds pre-check; None when the anchor search must run."""
    from repro.slicing.slice import ConjunctiveSlice

    slc = ConjunctiveSlice(computation, predicate)
    bounds = slc.bounds_frontiers()
    holds: Optional[bool] = None
    witness = None
    if bounds is None:
        holds = False  # no cut satisfies B: every run avoids it
    else:
        least, greatest = bounds
        n = computation.num_processes
        if least == (1,) * n:
            holds, witness = True, slc.least  # B(⊥): every run starts there
        elif greatest == tuple(
            len(computation.events_of(p)) for p in range(n)
        ):
            holds, witness = True, slc.greatest  # B(⊤): every run ends there
    if holds is None:
        return None
    stats = StatCounters("engine.interval-anchor")
    stats.inc("slice_shortcut")
    sp.set(slice_shortcut=True, holds=holds)
    return DetectionResult(
        holds=holds,
        witness=witness,
        algorithm="interval-anchor",
        stats=stats.as_dict(),
    )


def _definitely_conjunctive(
    computation: Computation, predicate: ConjunctivePredicate, sp
) -> DetectionResult:
    intervals = false_intervals(computation, predicate)
    stats = StatCounters("engine.interval-anchor")
    stats.set("anchors", len(intervals))
    stats.inc("handoffs_checked", 0)
    stats.inc("states", 0)
    sp.set(anchors=len(intervals))

    bottom: Frontier = (1,) * computation.num_processes
    index = CausalityIndex.of(computation)

    # Start anchors: intervals containing the initial event.  If none, the
    # bottom cut satisfies B, so every run hits B immediately.
    reachable: Dict[_Interval, _AnchorFrontiers] = {}
    queue: deque[Tuple[_Interval, Frontier]] = deque()
    for interval in intervals:
        if interval.start == 0:
            store = reachable.setdefault(interval, _AnchorFrontiers())
            if store.add(bottom):
                queue.append((interval, bottom))

    def accepts(interval: _Interval) -> bool:
        final_index = len(computation.events_of(interval.process)) - 1
        return interval.end == final_index

    # Immediate acceptance from a start anchor.
    for interval, _ in list(queue):
        if accepts(interval):
            return DetectionResult(
                holds=False,
                algorithm="interval-anchor",
                stats=stats.as_dict(),
            )

    while queue:
        interval, frontier = queue.popleft()
        stats.inc("states")
        i = interval.process
        for target in intervals:
            j = target.process
            if j == i:
                continue
            if frontier[j] > target.end + 1:
                continue  # j's frontier already left the target interval
            stats.inc("handoffs_checked")
            landed = index.closure_at_least(frontier, j, target.start + 1)
            if landed[j] > target.end + 1:
                continue  # overshot the target interval
            if landed[i] > interval.end + 1:
                continue  # the closure pushed the current anchor out
            store = reachable.setdefault(target, _AnchorFrontiers())
            if store.add(landed):
                if accepts(target):
                    return DetectionResult(
                        holds=False,
                        algorithm="interval-anchor",
                        stats=stats.as_dict(),
                    )
                queue.append((target, landed))

    return DetectionResult(
        holds=True, algorithm="interval-anchor", stats=stats.as_dict()
    )
