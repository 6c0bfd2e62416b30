"""The Cooper–Marzullo baseline: detection by global-state enumeration.

Cooper and Marzullo's algorithm decides ``possibly(B)`` and
``definitely(B)`` for *arbitrary* global predicates by walking the lattice
of consistent cuts.  It is the paper's reference point: always correct,
exponential in the number of processes (the "combinatorial explosion" of the
introduction), and the yardstick every structured algorithm is measured
against in our benchmarks.

Both engines consume the one level-order walk of
:class:`repro.computation.lattice.LevelWalk`:

* ``possibly(B)``: walk every consistent cut level by level, stopping at
  the first cut satisfying B (a minimum-size witness).
* ``definitely(B)``: B definitely holds iff *no* run avoids it, i.e. iff the
  final cut is unreachable from the initial cut through cuts violating B
  (every run is a lattice path visiting one cut per level, and every lattice
  path is a run).  The walk expands only the cuts violating B.

Both engines accept optional slice ``bounds`` — the ``(least, greatest)``
frontier box of a conjunctive over-approximation B' of B, computed by
:mod:`repro.slicing.dispatch`.  Soundness rests on ``B ⟹ B'``: every
B-satisfying cut lies inside the box, so ``possibly`` may search the box
alone, and ``definitely`` may treat any cut outside the box as violating B
without evaluating it — a cut *above* the box even proves an avoiding
run outright.  Skipped work is reported as the ``cuts_pruned`` stat.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Set, Tuple

from repro.computation import Computation, Cut, LevelWalk, final_cut
from repro.computation.lattice import Bounds
from repro.detection.result import DetectionResult
from repro.obs import StatCounters, span
from repro.obs.progress import tracker
from repro.perf.causality import CausalityIndex
from repro.predicates.base import GlobalPredicate

__all__ = ["possibly_enumerate", "definitely_enumerate"]


def _exceeds(frontier: Tuple[int, ...], greatest: Tuple[int, ...]) -> bool:
    """Is the cut strictly above the box on some process?"""
    return any(c > g for c, g in zip(frontier, greatest))


def _below(frontier: Tuple[int, ...], least: Tuple[int, ...]) -> bool:
    """Is the cut strictly below the box on some process?"""
    return any(c < l for c, l in zip(frontier, least))


def possibly_enumerate(
    computation: Computation,
    predicate: GlobalPredicate,
    bounds: Optional[Bounds] = None,
) -> DetectionResult:
    """Decide ``possibly(B)`` by exhaustive lattice search (with early exit).

    Walks the lattice level by level over frontier tuples and builds a
    ``Cut`` only to evaluate the predicate on it.

    With ``bounds`` the search starts at the box's least cut and never
    expands past its greatest cut: every satisfying cut lies in the box,
    and every box cut is reachable from the least one through box cuts,
    so the restriction is complete.  The witness is still a minimum-size
    satisfying cut (the box walk runs in level order too).
    """
    with span(
        "engine.cooper-marzullo",
        modality="possibly",
        sliced=bounds is not None,
    ) as sp:
        index = CausalityIndex.of(computation)
        walk = LevelWalk(computation, bounds)
        explored = 0
        holds, witness = False, None
        trk = tracker("detect.cuts", check_every=64)
        # The walk expands a level only when the next one is asked for,
        # so stopping at the first hit skips the rest of the lattice.
        for frontier in chain.from_iterable(walk):
            explored += 1
            trk.step()
            cut = Cut(computation, frontier)
            if predicate.evaluate(cut):
                holds, witness = True, cut
                break
        stats = StatCounters("engine.cooper-marzullo")
        stats.inc("cuts_explored", explored)
        if bounds is not None:
            stats.inc("cuts_pruned", walk.pruned)
        sp.set(cuts_explored=explored, holds=holds)
        index.maybe_flush_metrics()
        return DetectionResult(
            holds=holds,
            witness=witness,
            algorithm="cooper-marzullo",
            stats=stats.as_dict(),
        )


def definitely_enumerate(
    computation: Computation,
    predicate: GlobalPredicate,
    bounds: Optional[Bounds] = None,
) -> DetectionResult:
    """Decide ``definitely(B)`` by searching for a run that avoids B.

    Walks the sub-lattice of cuts violating B; ``definitely(B)`` holds iff
    the final cut never appears in it (in particular it holds immediately
    when the initial or the final cut satisfies B, since every run
    contains both).

    With ``bounds`` the search knows every B-satisfying cut lies in the
    box: cuts below the box are expanded without evaluating B
    (``cuts_pruned``), and the first cut *above* the box proves an
    avoiding run — every extension of that cut stays above the box and
    hence violates B — so the answer is False on the spot.
    """
    with span(
        "engine.cooper-marzullo",
        modality="definitely",
        sliced=bounds is not None,
    ) as sp:
        index = CausalityIndex.of(computation)
        goal = final_cut(computation).frontier
        least, greatest = bounds if bounds is not None else (None, None)
        explored = pruned = 0

        def _result(
            holds: bool, witness: Optional[Cut] = None
        ) -> DetectionResult:
            stats = StatCounters("engine.cooper-marzullo")
            stats.inc("cuts_explored", explored)
            if bounds is not None:
                stats.inc("cuts_pruned", pruned)
            sp.set(cuts_explored=explored, holds=holds)
            index.maybe_flush_metrics()
            return DetectionResult(
                holds=holds,
                witness=witness,
                algorithm="cooper-marzullo",
                stats=stats.as_dict(),
            )

        def _satisfies(frontier: Tuple[int, ...]) -> Optional[Cut]:
            """The cut when it satisfies B; None when it violates B.

            Outside the box ⟹ violates B, without evaluating it.
            """
            nonlocal explored, pruned
            explored += 1
            if least is not None and (
                _below(frontier, least) or _exceeds(frontier, greatest)
            ):
                pruned += 1
                return None
            cut = Cut(computation, frontier)
            return cut if predicate.evaluate(cut) else None

        # Examine both endpoints first: every run contains them.
        barriers: Set[Tuple[int, ...]] = set()  # satisfying cuts of a level
        levels = iter(
            LevelWalk(computation, expand=lambda f: f not in barriers)
        )
        (start,) = next(levels)
        for endpoint in dict.fromkeys((start, goal)):
            witness = _satisfies(endpoint)
            if witness is not None:
                return _result(True, witness)
        if start == goal:
            # The lattice is a single cut that violates B: the unique run
            # avoids B.
            return _result(False)
        trk = tracker("detect.cuts", check_every=64)
        for level in levels:
            barriers.clear()
            for frontier in level:
                if frontier == goal:
                    # A full run avoiding B exists (goal is known false).
                    return _result(False)
                if greatest is not None and _exceeds(frontier, greatest):
                    # Above the box: this cut and every cut of any
                    # extension violate B, so the avoiding path that
                    # reached it completes into a full run.
                    pruned += 1
                    return _result(False)
                trk.step()
                if _satisfies(frontier) is not None:
                    barriers.add(frontier)
        return _result(True)
