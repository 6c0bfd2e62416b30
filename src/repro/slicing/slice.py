"""Computation slicing for conjunctive (regular) predicates.

A *slice* of a computation with respect to a predicate B is a compact
representation of exactly the consistent cuts satisfying B.  For
*conjunctive* predicates the satisfying cuts are closed under union and
intersection (the frontier of a union/intersection is, per process, the
frontier event of one of the operands), so they form a distributive
sublattice of the cut lattice — the key structural fact behind the
slicing line of work that grew out of this paper (Mittal & Garg).

:class:`ConjunctiveSlice` materializes that sublattice lazily:

* emptiness, the least and the greatest satisfying cut, in polynomial time
  (the least via the CPDHB scan run forward, the greatest via the scan on
  the reversed computation);
* membership tests, and *rounding*: the least satisfying cut above a given
  cut (or None), again polynomial — the input need **not** be consistent,
  see :meth:`round_up`;
* enumeration and counting of all satisfying cuts in non-decreasing
  ``(size, frontier)`` order (output-sensitive: linear in the number of
  satisfying cuts times polynomial factors — exponentially better than
  filtering the full lattice when B is selective).

The hot paths lean on :class:`~repro.perf.causality.CausalityIndex`: the
rounding closures read the computation's clock table (rounding up through
the index's shared consistency closure), enumeration tracks plain
frontier tuples in its visited set (no per-cut ``Cut`` retention), and
builds a ``Cut`` only for each member it yields.  Rounding steps locate
true events with :func:`bisect.bisect_left` over the ascending
per-process index lists, so each closure pass is O(log t) per process
rather than a linear scan.

Every operation is cross-checked against brute-force lattice filtering in
the tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.computation import Computation, Cut
from repro.obs.progress import tracker
from repro.perf import CausalityIndex
from repro.predicates.conjunctive import ConjunctivePredicate
from repro.predicates.local import LocalPredicate

__all__ = ["ConjunctiveSlice"]

Frontier = Tuple[int, ...]


class ConjunctiveSlice:
    """The sublattice of consistent cuts satisfying a conjunctive predicate.

    Args:
        computation: The trace.
        predicate: The conjunctive predicate (processes without a conjunct
            are unconstrained).
    """

    def __init__(self, computation: Computation, predicate: ConjunctivePredicate):
        self._comp = computation
        self._pred = predicate
        self._index = CausalityIndex.of(computation)
        self._conjunct_of: Dict[int, LocalPredicate] = {
            conj.process: conj for conj in predicate.conjuncts
        }
        #: Per constrained process, indices (counting initial) of its true
        #: events, ascending — the bisect universe of the rounding closures.
        self._true_indices: Dict[int, List[int]] = {}
        for p, conj in self._conjunct_of.items():
            self._true_indices[p] = [
                eid[1] for eid in self._index.local_true_events(conj)
            ]
        self._least_fr: Optional[Frontier] = None
        self._greatest_fr: Optional[Frontier] = None
        self._bounds_computed = False

    # ------------------------------------------------------------------
    # Membership and rounding
    # ------------------------------------------------------------------
    def satisfies(self, cut: Cut) -> bool:
        """Does the (consistent) cut belong to the slice?"""
        return self._pred.evaluate(cut)

    def round_up(self, cut: Cut) -> Optional[Cut]:
        """Least satisfying consistent cut that contains ``cut``.

        The input need **not** be consistent: rounding starts with a
        consistency closure (pulling the causal past of every frontier
        event into the cut), then alternates two monotone closures until a
        fixpoint — advance every constrained process to its next true
        event at-or-after the current frontier, and restore consistency.
        Both closures only ever move frontiers up, and every satisfying
        cut above the input is above every intermediate cut, so the
        fixpoint is the least satisfying cut above the input's consistency
        closure.  This widened contract is what
        :meth:`_slice_successor_frontiers` relies on: bumping a single
        process past a frontier may break consistency (the bumped event
        can be a receive whose send is not in the cut), and the
        closure-first guarantee makes that safe.

        Returns None when no satisfying cut lies above.
        """
        frontier = self._round_up_frontier(list(cut.frontier))
        if frontier is None:
            return None
        return self._checked_cut(frontier)

    def _checked_cut(self, frontier: Frontier) -> Cut:
        """The cut of a rounding fixpoint, checked explicitly.

        Raises rather than asserts, so the check survives ``python -O``.
        """
        result = Cut(self._comp, frontier)
        if not result.is_consistent():
            raise AssertionError("rounding fixpoint must be consistent")
        if not self._pred.evaluate(result):  # pragma: no cover - invariant
            raise AssertionError("rounding fixpoint must satisfy the predicate")
        return result

    def _round_up_frontier(self, frontier: List[int]) -> Optional[Frontier]:
        """Tuple-level :meth:`round_up`: mutates ``frontier``, no ``Cut``."""
        changed = True
        while changed:
            changed = False
            # Consistency closure first (the widened-contract guarantee):
            # include causal pasts of frontier events.
            self._index.consistency_closure(frontier)
            # Predicate closure: land every constrained frontier on a true
            # event at or after its current position (bisect, not a scan).
            for p, indices in self._true_indices.items():
                current = frontier[p] - 1
                pos = bisect_left(indices, current)
                if pos == len(indices):
                    return None  # no later true event: nothing above works
                nxt = indices[pos]
                if nxt != current:
                    frontier[p] = nxt + 1
                    changed = True
        return tuple(frontier)

    # ------------------------------------------------------------------
    # Extremes
    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        """True iff no consistent cut satisfies the predicate."""
        self._compute_bounds()
        return self._least_fr is None

    @property
    def least(self) -> Optional[Cut]:
        """The smallest satisfying cut (None when the slice is empty)."""
        self._compute_bounds()
        if self._least_fr is None:
            return None
        return Cut(self._comp, self._least_fr)

    @property
    def greatest(self) -> Optional[Cut]:
        """The largest satisfying cut (None when the slice is empty)."""
        self._compute_bounds()
        if self._greatest_fr is None:
            return None
        return Cut(self._comp, self._greatest_fr)

    def bounds_frontiers(self) -> Optional[Tuple[Frontier, Frontier]]:
        """``(least, greatest)`` as raw frontier tuples, or None when empty.

        The pair bounds the box every satisfying cut lives in — the handle
        the sliced BFS engines (see :mod:`repro.slicing.dispatch`) use to
        prune out-of-slice cuts without constructing them.
        """
        self._compute_bounds()
        if self._least_fr is None:
            return None
        if self._greatest_fr is None:
            # Raises rather than asserts, so the check survives ``python -O``.
            raise AssertionError("a non-empty slice must have a greatest cut")
        return self._least_fr, self._greatest_fr

    def _compute_bounds(self) -> None:
        if self._bounds_computed:
            return
        self._bounds_computed = True
        n = self._index.num_processes
        self._least_fr = self._round_up_frontier([1] * n)
        if self._least_fr is None:
            return
        self._greatest_fr = self._round_down_frontier(
            list(self._index._lengths)
        )
        if self._greatest_fr is None:
            raise AssertionError("a non-empty slice must have a greatest cut")

    def round_down(self, cut: Cut) -> Optional[Cut]:
        """Greatest satisfying consistent cut contained in ``cut``.

        The dual of :meth:`round_up` (and with the same widened contract —
        the input need not be consistent): lower every constrained process
        to its last true event at-or-before the current frontier, and
        restore consistency by *lowering* any process whose frontier
        event's causal past sticks out of the cut.  Both moves only go
        down and every satisfying cut below the input is below every
        intermediate cut, so the fixpoint is the greatest satisfying cut
        below — or None when a constrained process runs out of true
        events.
        """
        frontier = self._round_down_frontier(list(cut.frontier))
        if frontier is None:
            return None
        return self._checked_cut(frontier)

    def _round_down_frontier(self, frontier: List[int]) -> Optional[Frontier]:
        """Tuple-level :meth:`round_down`: mutates ``frontier``, no ``Cut``."""
        n = self._index.num_processes
        clk_all = self._index._clk
        changed = True
        while changed:
            changed = False
            # Predicate closure: last true event at-or-before, by bisect.
            for p, indices in self._true_indices.items():
                current = frontier[p] - 1
                pos = bisect_right(indices, current) - 1
                if pos < 0:
                    return None  # no earlier true event: nothing below works
                prev = indices[pos]
                if prev != current:
                    frontier[p] = prev + 1
                    changed = True
            # Consistency closure: retreat any process whose frontier
            # event's causal past sticks out of the cut.
            stable = False
            while not stable:
                stable = True
                for p in range(n):
                    while frontier[p] > 1:
                        clk = clk_all[p][frontier[p] - 1]
                        if all(clk[q] <= frontier[q] for q in range(n)):
                            break
                        frontier[p] -= 1
                        stable = False
                        changed = True
        return tuple(frontier)

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Cut]:
        """All satisfying cuts, in non-decreasing ``(size, frontier)`` order.

        The visited set holds plain frontier tuples, never ``Cut``
        objects, so a large slice costs one tuple per member — not a
        retained ``Cut`` graph.
        """
        for frontier in self._iter_frontiers():
            yield Cut(self._comp, frontier)

    def _iter_frontiers(self) -> Iterator[Frontier]:
        """Tuple-level enumeration backing :meth:`__iter__` and :meth:`count`.

        A best-first walk over the sublattice: successors always have
        strictly larger size (a bump plus an upward rounding), so a heap
        keyed by ``(size, frontier)`` yields members in canonical
        non-decreasing size order.
        """
        self._compute_bounds()
        least = self._least_fr
        if least is None:
            return
        trk = tracker("slice.cuts", check_every=64)
        seen: Set[Frontier] = {least}
        heap: List[Tuple[int, Frontier]] = [(sum(least), least)]
        while heap:
            _, frontier = heappop(heap)
            trk.step()
            yield frontier
            for nxt in self._slice_successor_frontiers(frontier):
                if nxt not in seen:
                    seen.add(nxt)
                    heappush(heap, (sum(nxt), nxt))

    def _slice_successor_frontiers(
        self, frontier: Frontier
    ) -> Iterator[Frontier]:
        """Satisfying frontiers reached by one minimal advance in the slice.

        For each process p, advance p past its current frontier and round
        up; the results generate the sublattice above ``frontier`` (every
        satisfying D > C dominates C advanced on some process, and
        rounding that advance yields a satisfying cut <= D).  The bumped
        frontier may be inconsistent — :meth:`round_up`'s
        consistency-closure-first contract covers exactly this call.
        """
        lengths = self._index._lengths
        for p in range(self._index.num_processes):
            if frontier[p] >= lengths[p]:
                continue
            bumped = list(frontier)
            bumped[p] += 1
            rounded = self._round_up_frontier(bumped)
            if rounded is not None:
                yield rounded

    def count(self) -> int:
        """Number of satisfying cuts (output-sensitive enumeration)."""
        return sum(1 for _ in self._iter_frontiers())

    def __contains__(self, cut: Cut) -> bool:
        return cut.is_consistent() and self.satisfies(cut)
