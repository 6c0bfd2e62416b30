"""Detection of symmetric predicates (paper, Section 4.3).

A symmetric predicate on n boolean variables holds iff the number of true
variables lies in a count set S.  Booleans are 0/1-valued, so every event
changes the true-count by at most one — the ±1 hypothesis of Section 4.2
holds automatically, and:

* ``possibly(count in S)``: since ``possibly`` distributes over disjunction,
  it holds iff some j in S satisfies ``min-count <= j <= max-count``, with
  min/max computed by one min-cut each.  Polynomial.
* ``definitely(count in S)``: ``definitely`` does *not* distribute over
  disjunction, so general count sets use the exact avoidance search; the
  singleton case ``S = {j}`` uses the paper's Theorem 7(2) decomposition.
"""

from __future__ import annotations

from typing import Optional

from repro.computation import Computation, Cut
from repro.detection.relational_sum import (
    definitely_sum_eq_unit,
    witness_cut_with_sum,
)
from repro.detection.result import DetectionResult
from repro.flow import max_sum_cut, min_sum_cut
from repro.obs import StatCounters, span
from repro.predicates.relational import RelationalSumPredicate, Relop
from repro.predicates.symmetric import SymmetricPredicate

__all__ = ["possibly_symmetric", "definitely_symmetric"]


def possibly_symmetric(
    computation: Computation, predicate: SymmetricPredicate
) -> DetectionResult:
    """``possibly`` of a symmetric predicate in polynomial time."""
    variable = predicate.variable
    with span("engine.symmetric-unit-step", variable=variable) as sp:
        lo, _ = min_sum_cut(computation, variable)
        hi, _ = max_sum_cut(computation, variable)
        stats = StatCounters("engine.symmetric-unit-step")
        stats.set("min_count", lo)
        stats.set("max_count", hi)
        reachable = sorted(j for j in predicate.counts if lo <= j <= hi)
        sp.set(min_count=lo, max_count=hi, holds=bool(reachable))
        if not reachable:
            return DetectionResult(
                holds=False, algorithm="symmetric-unit-step",
                stats=stats.as_dict(),
            )
        witness: Optional[Cut] = witness_cut_with_sum(
            computation, variable, reachable[0]
        )
        if witness is None:
            # Raises rather than asserts, so the check survives ``python -O``.
            raise AssertionError(
                f"count {reachable[0]} lies in [{lo}, {hi}] but no cut has it"
            )
        return DetectionResult(
            holds=True,
            witness=witness,
            algorithm="symmetric-unit-step",
            stats=stats.as_dict(),
        )


def definitely_symmetric(
    computation: Computation,
    predicate: SymmetricPredicate,
) -> DetectionResult:
    """``definitely`` of a symmetric predicate.

    Singleton count sets use the Theorem 7(2) decomposition; general count
    sets are decided exactly by searching for a run avoiding the predicate
    (restricted to the predicate's slice box).
    """
    if len(predicate.counts) == 1:
        (count,) = predicate.counts
        inner = RelationalSumPredicate(predicate.variable, Relop.EQ, count)
        result = definitely_sum_eq_unit(computation, inner)
        return DetectionResult(
            holds=result.holds,
            algorithm="symmetric-" + result.algorithm,
            stats=result.stats,
        )
    from repro.slicing.dispatch import sliced_definitely_enumerate

    with span(
        "engine.symmetric-avoidance", counts=sorted(predicate.counts)
    ) as sp:
        inner = sliced_definitely_enumerate(computation, predicate)
        stats = StatCounters("engine.symmetric-avoidance")
        stats.inc("searches")
        for key in ("cuts_explored", "cuts_pruned"):
            if key in inner.stats:
                stats.inc(key, inner.stats[key])
        sp.set(holds=inner.holds, sliced=inner.algorithm.startswith("slice"))
        return DetectionResult(
            holds=inner.holds, algorithm="symmetric-avoidance",
            stats=stats.as_dict(),
        )
