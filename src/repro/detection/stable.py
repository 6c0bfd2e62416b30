"""Stable predicate detection.

A predicate is *stable* iff once true it remains true on every larger
consistent cut (termination, deadlock, token loss — the Chandy–Lamport
class cited in the paper's Figure 1 lineage).  For a stable predicate B,

* ``possibly(B)``  <=>  B holds at the final cut, and
* ``definitely(B)`` <=>  B holds at the final cut,

because the final cut belongs to every run and dominates every cut.  The
online counterpart — detecting a stable predicate while the system runs,
with Chandy–Lamport snapshots — lives in :mod:`repro.simulation.snapshot`;
this module is the offline/trace side.
"""

from __future__ import annotations

from repro.computation import Computation, final_cut, iter_consistent_cuts
from repro.detection.result import DetectionResult
from repro.obs import span
from repro.predicates.base import GlobalPredicate

__all__ = ["is_stable", "detect_stable"]


def is_stable(
    computation: Computation, predicate: GlobalPredicate
) -> bool:
    """Exhaustively verify stability of a predicate on this computation.

    Checks that the predicate, once true at a cut, is true at every
    immediate successor — exponential, intended for tests and small traces.
    """
    for cut in iter_consistent_cuts(computation):
        if predicate.evaluate(cut):
            for nxt in cut.successors():
                if not predicate.evaluate(nxt):
                    return False
    return True


def detect_stable(
    computation: Computation, predicate: GlobalPredicate
) -> DetectionResult:
    """Decide possibly/definitely of a *stable* predicate in O(n).

    For stable predicates the two modalities coincide and are decided at
    the final cut.  Stability is assumed, not checked; :func:`is_stable`
    checks it exhaustively on small traces.
    """
    with span("engine.stable-final-cut") as sp:
        last = final_cut(computation)
        holds = predicate.evaluate(last)
        sp.set(holds=holds)
        return DetectionResult(
            holds=holds,
            witness=last if holds else None,
            algorithm="stable-final-cut",
            stats={},
        )
