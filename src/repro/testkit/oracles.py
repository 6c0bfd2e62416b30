"""Independent brute-force oracles for differential testing.

These are the library's *ground truth*: deliberately naive algorithms that
avoid every code path they are used to check.

* :func:`brute_possibly` enumerates every consistent cut by filtering *all*
  frontier vectors (it does not use the lattice successor machinery);
* :func:`brute_definitely` enumerates every run via depth-first search over
  enabled events and checks each run's cut sequence directly;
* :func:`rank_walk` decides a Section 3.3 combination table rank by rank
  in ``itertools.product`` order, one CPDHB scan per combination.  It
  shares the elimination kernel with the combination search it referees,
  but none of the search's pruning.

All three are exponential — use them only on small computations.  The
:mod:`repro.testkit.registry` gates them behind a ``max_events`` budget for
exactly that reason.

Historically these lived in ``tests/helpers.py``; they were promoted into
the library so the differential fuzzer (:mod:`repro.testkit.fuzz`) and the
corpus replayer (:mod:`repro.testkit.corpus`) can treat them as registered
engines.  ``tests/helpers.py`` still re-exports them.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.computation import Computation, Cut
from repro.events import EventId

__all__ = [
    "all_cuts",
    "all_consistent_cuts",
    "brute_possibly",
    "brute_definitely",
    "brute_runs",
    "combination_at",
    "rank_walk",
]


def all_cuts(computation: Computation) -> List[Cut]:
    """Every frontier vector (consistent or not) as a Cut."""
    ranges = [
        range(1, len(computation.events_of(p)) + 1)
        for p in range(computation.num_processes)
    ]
    return [Cut(computation, frontier) for frontier in itertools.product(*ranges)]


def all_consistent_cuts(computation: Computation) -> List[Cut]:
    """Every consistent cut, by brute-force filtering of all frontiers."""
    return [cut for cut in all_cuts(computation) if cut.is_consistent()]


def brute_possibly(
    computation: Computation, predicate: Callable[[Cut], bool]
) -> Optional[Cut]:
    """First consistent cut satisfying the predicate, else None."""
    for cut in all_consistent_cuts(computation):
        if predicate(cut):
            return cut
    return None


def brute_runs(computation: Computation) -> List[List[Cut]]:
    """Every run of the computation as its sequence of cuts (incl. bottom)."""
    from repro.computation import final_cut, initial_cut

    target = final_cut(computation)
    runs: List[List[Cut]] = []

    def extend(cut: Cut, prefix: List[Cut]) -> None:
        if cut == target:
            runs.append(list(prefix))
            return
        for p in range(computation.num_processes):
            if cut.is_enabled(p):
                nxt = cut.advance(p)
                prefix.append(nxt)
                extend(nxt, prefix)
                prefix.pop()

    start = initial_cut(computation)
    extend(start, [start])
    return runs


def brute_definitely(
    computation: Computation, predicate: Callable[[Cut], bool]
) -> bool:
    """Does every run pass through a cut satisfying the predicate?"""
    for run in brute_runs(computation):
        if not any(predicate(cut) for cut in run):
            return False
    return True


def combination_at(
    per_group_chains: Sequence[Sequence[Sequence[EventId]]], rank: int
) -> List[Sequence[EventId]]:
    """The ``rank``-th combination in ``itertools.product`` order.

    Mixed-radix decode with the last group as the fastest-varying digit,
    matching ``itertools.product(*per_group_chains)`` exactly.
    """
    combo: List[Sequence[EventId]] = []
    for chains in reversed(per_group_chains):
        rank, digit = divmod(rank, len(chains))
        combo.append(chains[digit])
    combo.reverse()
    return combo


def rank_walk(
    computation: Computation,
    per_group_chains: Sequence[Sequence[Sequence[EventId]]],
) -> Tuple[Optional[int], Optional[List[EventId]]]:
    """First rank whose combination admits a consistent selection.

    Scores every combination of one chain per group in
    ``itertools.product`` order with one
    :class:`~repro.detection.garg_waldecker.SelectionScan`, and returns
    the first success's rank and least consistent selection, or
    ``(None, None)``.  Visits up to ``prod |G_j|`` ranks: small tables
    only.
    """
    from repro.detection.garg_waldecker import SelectionScan

    total = math.prod(len(chains) for chains in per_group_chains)
    for rank in range(total):
        combo = combination_at(per_group_chains, rank)
        selection = SelectionScan(computation, combo).run()
        if selection is not None:
            return rank, selection
    return None, None
