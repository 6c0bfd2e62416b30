"""The lattice of consistent cuts (substrate S3).

The consistent cuts of a computation, ordered by inclusion, form a
distributive lattice whose size is exponential in the number of processes in
general — the "combinatorial explosion" that motivates the paper.  This
module provides:

* :class:`LevelWalk`, the one level-order walk over the lattice's frontier
  tuples (level = cut size).  Every exhaustive lattice search consumes it:
  level enumeration and lattice statistics here, and the Cooper–Marzullo
  ``possibly``/``definitely`` engines of :mod:`repro.detection`;
* linearizations (runs) of the computation.

All functions treat the computation as immutable and never hold more
than one level of the lattice at a time.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.computation.computation import Computation
from repro.computation.cut import Cut, final_cut, initial_cut
from repro.events import EventId

__all__ = [
    "LevelWalk",
    "iter_consistent_cuts",
    "iter_levels",
    "count_consistent_cuts",
    "some_linearization",
    "iter_linearizations",
    "lattice_width",
]

Frontier = Tuple[int, ...]
#: A slice box: (least, greatest) frontier tuples.
Bounds = Tuple[Frontier, Frontier]


class LevelWalk:
    """Level-order walk over the frontier tuples of consistent cuts.

    Iterating yields each level — the frontiers of the cuts with one more
    non-initial event than the previous level's — as a list in discovery
    order: a frontier comes where the first frontier of the previous level
    that reaches it lists it among its successors.  A level is expanded
    only after the consumer asks for the next one, one
    :meth:`~repro.perf.causality.CausalityIndex.successor_frontiers` call
    per frontier (a receive-delta test, no ``Cut`` objects), so a consumer
    that stops early never pays for the rest of the lattice.  Every edge
    climbs exactly one level, so deduplicating within the level is
    enough; no lattice-wide ``seen`` set is kept.

    With ``bounds`` — a ``(least, greatest)`` frontier box, typically a
    slice box from :mod:`repro.slicing.dispatch` — the walk starts at the
    least frontier and drops every successor above the greatest one,
    counting each dropped edge in :attr:`pruned`.  With ``expand`` only
    the frontiers it accepts are expanded; the others end their branch.
    """

    __slots__ = ("computation", "bounds", "expand", "pruned")

    def __init__(
        self,
        computation: Computation,
        bounds: Optional[Bounds] = None,
        expand: Optional[Callable[[Frontier], bool]] = None,
    ) -> None:
        self.computation = computation
        self.bounds = bounds
        self.expand = expand
        #: Successor edges dropped above ``bounds`` so far.
        self.pruned = 0

    def __iter__(self) -> Iterator[List[Frontier]]:
        from repro.perf.causality import CausalityIndex

        index = CausalityIndex.of(self.computation)
        if self.bounds is None:
            level = [initial_cut(self.computation).frontier]
            greatest = None
        else:
            start, greatest = self.bounds
            level = [start]
        while level:
            yield level
            if self.expand is not None:
                level = [f for f in level if self.expand(f)]
            # A dict keeps the first-discovery order of each successor.
            next_level: Dict[Frontier, None] = {}
            for frontier in level:
                for nxt in index.successor_frontiers(frontier):
                    if greatest is not None and any(
                        c > g for c, g in zip(nxt, greatest)
                    ):
                        self.pruned += 1
                        continue
                    next_level[nxt] = None
            level = list(next_level)


def iter_consistent_cuts(computation: Computation) -> Iterator[Cut]:
    """Enumerate every consistent cut, in non-decreasing size order."""
    for level in iter_levels(computation):
        yield from level


def iter_levels(
    computation: Computation, bounds: Optional[Bounds] = None
) -> Iterator[List[Cut]]:
    """Enumerate the level sets of the lattice.

    Level *k* contains the consistent cuts with exactly *k* non-initial
    events.  Every run visits exactly one cut per level, which is why the
    Cooper–Marzullo ``definitely`` algorithm walks the lattice level by
    level.  Within a level the cuts come in :class:`LevelWalk` discovery
    order, not sorted.

    With ``bounds`` — a ``(least, greatest)`` frontier pair, typically a
    slice box from :mod:`repro.slicing.dispatch` — the walk starts at the
    least frontier and never expands past the greatest, enumerating the
    levels of the box sublattice only.
    """
    from repro.obs.progress import tracker

    trk = tracker("lattice.cuts")
    for level in LevelWalk(computation, bounds):
        trk.step(len(level))
        yield [Cut(computation, frontier) for frontier in level]


def _level_sizes(computation: Computation) -> Iterator[int]:
    """Number of consistent cuts in each level, without building cuts."""
    from repro.obs.progress import tracker

    trk = tracker("lattice.cuts")
    for level in LevelWalk(computation):
        trk.step(len(level))
        yield len(level)


def count_consistent_cuts(computation: Computation) -> int:
    """Number of consistent cuts (size of the lattice)."""
    return sum(_level_sizes(computation))


def some_linearization(computation: Computation) -> List[EventId]:
    """One run of the computation: a total order consistent with causality.

    Produced greedily by always executing the lowest-numbered enabled
    process, so the result is deterministic.  Initial events are not listed
    (they precede everything by definition).
    """
    order: List[EventId] = []
    cut = initial_cut(computation)
    target = final_cut(computation)
    while cut != target:
        for p in range(computation.num_processes):
            if cut.is_enabled(p):
                cut = cut.advance(p)
                order.append(cut.last_event_id(p))
                break
        else:  # pragma: no cover - impossible for acyclic computations
            raise RuntimeError("no enabled event but final cut not reached")
    return order


def iter_linearizations(
    computation: Computation, limit: Optional[int] = None
) -> Iterator[List[EventId]]:
    """Enumerate runs (total orders) of the computation.

    The number of runs is exponential; pass ``limit`` to stop early.  Runs
    are produced in lexicographic order of the process choices.
    """
    produced = 0
    target = final_cut(computation)

    def extend(
        cut: Cut, prefix: List[EventId]
    ) -> Iterator[List[EventId]]:
        nonlocal produced
        if limit is not None and produced >= limit:
            return
        if cut == target:
            produced += 1
            yield list(prefix)
            return
        for p in range(computation.num_processes):
            if cut.is_enabled(p):
                nxt = cut.advance(p)
                prefix.append(nxt.last_event_id(p))
                yield from extend(nxt, prefix)
                prefix.pop()
                if limit is not None and produced >= limit:
                    return

    yield from extend(initial_cut(computation), [])


def lattice_width(computation: Computation) -> int:
    """Maximum number of consistent cuts in any single level.

    A proxy for the per-level work of level-by-level algorithms; grows
    exponentially with the number of truly concurrent processes.
    """
    return max(_level_sizes(computation))
