"""Detection of relational sum predicates (paper, Section 4).

``possibly``/``definitely`` of ``x_1 + ... + x_n relop k`` where each
``x_i`` is an integer variable of process i.

Polynomial engines:

* Inequalities (<, <=, >, >=): ``possibly`` reduces to the min/max of the
  sum over all consistent cuts, computed by one min-cut each
  (:mod:`repro.flow`), for *arbitrary* per-step changes.
* Equality with ±1 steps (the paper's Theorem 7):
  ``possibly(sum = k)  <=>  possibly(sum <= k) and possibly(sum >= k)``,
  i.e. ``min <= k <= max``.  The witness is constructed exactly as in the
  paper's Theorem 4: walk a lattice path from the initial cut toward the
  extremal cut and stop at the first cut whose sum hits ``k`` (the sum
  changes by at most one per executed event, so it cannot jump over ``k``).
  Likewise ``definitely(sum = k) <=> definitely(sum <= k) and
  definitely(sum >= k)`` — every run attains values on both sides of ``k``
  and therefore ``k`` itself.

Exact (exponential) engines, for the NP-complete cells:

* :func:`possibly_sum_eq_exact` — equality under arbitrary increments
  (Theorem 2 shows this NP-complete via SUBSET-SUM).  For computations
  without messages it runs the classical pseudo-polynomial sum-set dynamic
  program (per-process prefix sums composed by sumset convolution); in
  general it enumerates the cut lattice with early exit.
* ``definitely`` of the inequalities — decided exactly by searching for a
  run that avoids the predicate (a path through the complement sub-lattice).

Every public function returns a :class:`DetectionResult` whose ``stats``
record which machinery ran.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.computation import Computation, Cut, initial_cut
from repro.detection.result import DetectionResult
from repro.flow import max_sum_cut, min_sum_cut
from repro.obs import StatCounters, span
from repro.predicates.errors import UnsupportedPredicateError
from repro.predicates.relational import RelationalSumPredicate, Relop

__all__ = [
    "possibly_sum",
    "definitely_sum",
    "possibly_sum_eq_unit",
    "definitely_sum_eq_unit",
    "possibly_sum_eq_exact",
    "witness_cut_with_sum",
]


# ----------------------------------------------------------------------
# possibly — inequalities (polynomial for arbitrary increments)
# ----------------------------------------------------------------------
def _possibly_inequality(
    computation: Computation, predicate: RelationalSumPredicate
) -> DetectionResult:
    variable, k = predicate.variable, predicate.constant
    relop = predicate.relop
    with span("engine.min-cut", relop=relop.value, variable=variable) as sp:
        stats = StatCounters("engine.min-cut")
        stats.inc("flow_runs")
        if relop in (Relop.LT, Relop.LE):
            bound, witness = min_sum_cut(computation, variable)
            holds = relop.compare(bound, k)
            stats.set("min_sum", bound)
        else:
            bound, witness = max_sum_cut(computation, variable)
            holds = relop.compare(bound, k)
            stats.set("max_sum", bound)
        sp.set(k=k, extremal_sum=bound, holds=holds)
        return DetectionResult(
            holds=holds,
            witness=witness if holds else None,
            algorithm="min-cut",
            stats=stats.as_dict(),
        )


def witness_cut_with_sum(
    computation: Computation, variable: str, k: int
) -> Optional[Cut]:
    """A consistent cut whose variable-sum equals ``k``, for ±1 computations.

    Implements the constructive step of the paper's Theorem 4: pick the
    extremal cut on the far side of ``k`` from the initial sum, walk any
    lattice path from the initial cut to it, and return the first cut whose
    sum equals ``k``.  Returns None when ``k`` lies outside [min, max].
    """
    lo, lo_cut = min_sum_cut(computation, variable)
    hi, hi_cut = max_sum_cut(computation, variable)
    if not lo <= k <= hi:
        return None
    start = initial_cut(computation)
    base = start.variable_sum(variable)
    if base == k:
        return start
    target = hi_cut if k > base else lo_cut
    # Walk any maximal chain of the lattice interval [start, target]: from a
    # consistent cut strictly below another, some process with a smaller
    # frontier has its next event enabled (a minimal event of the
    # difference), so the greedy walk below always progresses and costs
    # O(events * processes) — no search.  The sum moves by at most one per
    # step, so it cannot jump over k (the paper's Theorem 4 argument).
    cut = start
    while cut != target:
        for p in range(computation.num_processes):
            if cut.frontier[p] < target.frontier[p] and cut.is_enabled(p):
                cut = cut.advance(p)
                break
        else:  # pragma: no cover - impossible between comparable cuts
            raise AssertionError("no enabled event below the target cut")
        if cut.variable_sum(variable) == k:
            return cut
    raise AssertionError(
        "±1 intermediate-value walk missed k; is the computation unit-step?"
    )


def possibly_sum_eq_unit(
    computation: Computation, predicate: RelationalSumPredicate
) -> DetectionResult:
    """``possibly(sum = k)`` for ±1 computations (paper, Theorem 7(1))."""
    _require_unit(computation, predicate)
    variable, k = predicate.variable, predicate.constant
    with span("engine.theorem7-unit-step", variable=variable, k=k) as sp:
        lo, _ = min_sum_cut(computation, variable)
        hi, _ = max_sum_cut(computation, variable)
        holds = lo <= k <= hi
        witness = (
            witness_cut_with_sum(computation, variable, k) if holds else None
        )
        stats = StatCounters("engine.theorem7-unit-step")
        stats.set("min_sum", lo)
        stats.set("max_sum", hi)
        sp.set(min_sum=lo, max_sum=hi, holds=holds)
        return DetectionResult(
            holds=holds,
            witness=witness,
            algorithm="theorem7-unit-step",
            stats=stats.as_dict(),
        )


def possibly_sum_eq_exact(
    computation: Computation,
    predicate: RelationalSumPredicate,
) -> DetectionResult:
    """Exact ``possibly(sum = k)`` for arbitrary increments.

    Message-free computations (the shape of the SUBSET-SUM reduction) use a
    sum-set dynamic program over per-process prefix sums — pseudo-polynomial
    in the value range, exponential in the worst case, as Theorem 2
    requires.  Computations with messages fall back to lattice enumeration,
    bounded by the predicate's slice box.
    """
    variable, k = predicate.variable, predicate.constant
    if predicate.relop is not Relop.EQ:
        raise UnsupportedPredicateError("exact engine handles '=' only")
    if not computation.messages:
        return _possibly_eq_sumset(computation, variable, k)
    from repro.slicing.dispatch import sliced_possibly_enumerate

    return sliced_possibly_enumerate(computation, predicate)


def _possibly_eq_sumset(
    computation: Computation, variable: str, k: int
) -> DetectionResult:
    """Sum-set DP for message-free computations.

    With no messages, every combination of per-process prefixes is a
    consistent cut, so achievable sums are the sumset of the per-process
    prefix-value sets.  Tracks one witness prefix-choice per achievable sum.
    """
    with span("engine.sumset-dp", variable=variable, k=k) as sp:
        achievable: Dict[int, List[int]] = {0: []}
        for p in range(computation.num_processes):
            events = computation.events_of(p)
            options: List[Tuple[int, int]] = []  # (prefix length c_p, value)
            seen_values: Set[int] = set()
            for c in range(1, len(events) + 1):
                value = int(events[c - 1].value(variable, 0))
                options.append((c, value))
            next_achievable: Dict[int, List[int]] = {}
            for total, choice in achievable.items():
                for c, value in options:
                    key = total + value
                    if key not in next_achievable:
                        next_achievable[key] = choice + [c]
            achievable = next_achievable
        stats = StatCounters("engine.sumset-dp")
        stats.set("achievable_sums", len(achievable))
        sp.set(achievable_sums=len(achievable), holds=k in achievable)
        if k not in achievable:
            return DetectionResult(
                holds=False, algorithm="sumset-dp", stats=stats.as_dict()
            )
        witness = Cut(computation, achievable[k])
        return DetectionResult(
            holds=True, witness=witness, algorithm="sumset-dp",
            stats=stats.as_dict(),
        )


def possibly_sum(
    computation: Computation,
    predicate: RelationalSumPredicate,
) -> DetectionResult:
    """``possibly`` of a relational sum predicate — dispatching facade.

    Inequalities use min-cut; ``=`` uses Theorem 7 when the computation is
    unit-step and the exact engine otherwise; ``!=`` holds unless the sum is
    constant equal to k across all cuts.
    """
    relop = predicate.relop
    if relop in (Relop.LT, Relop.LE, Relop.GT, Relop.GE):
        return _possibly_inequality(computation, predicate)
    if relop is Relop.EQ:
        if predicate.unit_step(computation):
            return possibly_sum_eq_unit(computation, predicate)
        return possibly_sum_eq_exact(computation, predicate)
    # relop is NE: some cut differs from k unless min == max == k.
    variable, k = predicate.variable, predicate.constant
    with span("engine.min-cut", relop="!=", variable=variable) as sp:
        lo, lo_cut = min_sum_cut(computation, variable)
        hi, hi_cut = max_sum_cut(computation, variable)
        holds = not (lo == hi == k)
        witness = None
        if holds:
            witness = lo_cut if lo != k else hi_cut
        stats = StatCounters("engine.min-cut")
        stats.inc("flow_runs", 2)
        stats.set("min_sum", lo)
        stats.set("max_sum", hi)
        sp.set(min_sum=lo, max_sum=hi, holds=holds)
        return DetectionResult(
            holds=holds,
            witness=witness,
            algorithm="min-cut",
            stats=stats.as_dict(),
        )


# ----------------------------------------------------------------------
# definitely
# ----------------------------------------------------------------------
def _definitely_by_avoidance(
    computation: Computation,
    predicate: RelationalSumPredicate,
) -> DetectionResult:
    """Exact ``definitely``: is there a run avoiding the predicate?

    Exponential in the worst case (it explores the complement sub-lattice);
    exact for every relop.  Runs the slice-first ``definitely`` search of
    :func:`repro.slicing.dispatch.sliced_definitely_enumerate`, the same
    one :func:`repro.detection.api.detect` uses for opaque predicates.
    """
    from repro.slicing.dispatch import sliced_definitely_enumerate

    with span("engine.avoidance-search", relop=predicate.relop.value) as sp:
        inner = sliced_definitely_enumerate(computation, predicate)
        stats = StatCounters("engine.avoidance-search")
        stats.inc("searches")
        for key in ("cuts_explored", "cuts_pruned"):
            if key in inner.stats:
                stats.inc(key, inner.stats[key])
        sp.set(holds=inner.holds, sliced=inner.algorithm.startswith("slice"))
        return DetectionResult(
            holds=inner.holds,
            algorithm="avoidance-search",
            stats=stats.as_dict(),
        )


def definitely_sum_eq_unit(
    computation: Computation,
    predicate: RelationalSumPredicate,
) -> DetectionResult:
    """``definitely(sum = k)`` for ±1 computations (paper, Theorem 7(2)).

    Reduces to ``definitely(sum <= k) and definitely(sum >= k)``: every run
    then attains values on both sides of ``k`` and, moving by ±1, must pass
    through ``k`` itself.
    """
    _require_unit(computation, predicate)
    variable, k = predicate.variable, predicate.constant
    with span("engine.theorem7-unit-step", variable=variable, k=k) as sp:
        le = RelationalSumPredicate(variable, Relop.LE, k)
        ge = RelationalSumPredicate(variable, Relop.GE, k)
        d_le = _definitely_by_avoidance(computation, le)
        if not d_le.holds:
            sp.set(holds=False, failed="definitely(sum <= k)")
            return DetectionResult(
                holds=False,
                algorithm="theorem7-unit-step",
                stats={"failed": "definitely(sum <= k)"},
            )
        d_ge = _definitely_by_avoidance(computation, ge)
        sp.set(holds=d_ge.holds)
        return DetectionResult(
            holds=d_ge.holds,
            algorithm="theorem7-unit-step",
            stats={} if d_ge.holds else {"failed": "definitely(sum >= k)"},
        )


def definitely_sum(
    computation: Computation,
    predicate: RelationalSumPredicate,
) -> DetectionResult:
    """``definitely`` of a relational sum predicate — dispatching facade."""
    if predicate.relop is Relop.EQ and predicate.unit_step(computation):
        return definitely_sum_eq_unit(computation, predicate)
    return _definitely_by_avoidance(computation, predicate)


def _require_unit(
    computation: Computation, predicate: RelationalSumPredicate
) -> None:
    if not predicate.unit_step(computation):
        raise UnsupportedPredicateError(
            "the ±1 algorithms require every event to change "
            f"{predicate.variable!r} by at most one"
        )
