"""Witness enumeration: *all* cuts satisfying a predicate.

``possibly`` answers whether one witness exists; debugging sessions often
want to see every global state exhibiting a condition (e.g. every state
where two processes overlap in their critical sections).  This module
enumerates them:

* predicates with a conjunctive view route through the slice
  (:class:`repro.slicing.ConjunctiveSlice`), touching only the satisfying
  sublattice;
* everything else filters the lattice enumeration (exponential, with a
  mandatory ``limit``-style discipline left to the caller via the lazy
  iterator).
"""

from __future__ import annotations

from typing import Iterator

from repro.computation import Computation, Cut, iter_consistent_cuts
from repro.predicates.base import GlobalPredicate
from repro.predicates.conjunctive import conjunctive_view

__all__ = ["iter_witnesses", "count_witnesses"]


def iter_witnesses(
    computation: Computation, predicate: GlobalPredicate
) -> Iterator[Cut]:
    """Lazily yield every consistent cut satisfying the predicate.

    Predicates with a conjunctive view (conjunctive, local, singular
    1-CNF) enumerate through the slice — output-sensitive; other
    predicates filter the full lattice.  Cuts arrive in non-decreasing
    size order either way.
    """
    conj = conjunctive_view(predicate)
    if conj is not None:
        from repro.slicing import ConjunctiveSlice

        yield from ConjunctiveSlice(computation, conj)
        return
    for cut in iter_consistent_cuts(computation):
        if predicate.evaluate(cut):
            yield cut


def count_witnesses(
    computation: Computation, predicate: GlobalPredicate
) -> int:
    """Number of consistent cuts satisfying the predicate."""
    return sum(1 for _ in iter_witnesses(computation, predicate))
