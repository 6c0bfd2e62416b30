"""Slice-first dispatch: conjunctive over-approximation as a universal pruner.

``possibly``/``definitely`` of an arbitrary predicate B are NP-hard, and
the enumeration engines pay for it by walking the full cut lattice.  The
slicing observation (Mittal & Garg's follow-up line, cs/0303010) is that
any *conjunctive* predicate B' weaker than B — ``B ⟹ B'`` — confines
every B-satisfying cut to the slice of B', a distributive sublattice
bracketed by ``round_up(⊥)`` and ``round_down(⊤)``.  Enumeration
restricted to that box is sound and complete for B, and often
exponentially smaller.

This module computes the over-approximation and wraps the enumeration
engines:

* :func:`conjunctive_approximation` — exact for conjunctive/local/1-CNF
  predicates; clause projection for CNF (single-process clauses survive,
  same-process clauses merge by conjunction, multi-process clauses are
  dropped — only ever *weakening* the predicate); per-process value-bound
  projection for relational sums and symmetric count predicates; ``None``
  when no useful approximation exists (the dispatcher then falls back to
  the unsliced engine, so slicing never costs correctness).
* :func:`sliced_possibly_enumerate` / :func:`sliced_definitely_enumerate`
  — the enumeration paths of :mod:`repro.detection.api`, and the only
  exhaustive ``definitely`` search (the relational-sum and symmetric
  avoidance searches go through it too).  Both open an ``engine.slice``
  span and report the box-volume contraction as the
  ``perf.slice.reduction`` gauge plus skipped work as the
  ``perf.slice.cuts_pruned`` counter.

Detection modules are imported lazily inside functions: slicing sits
below :mod:`repro.detection` in the layering, and the lazy imports keep
``repro.slicing`` importable without dragging the engine stack in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.computation import Computation
from repro.obs import STATE, registry, span
from repro.obs.stats import StatCounters
from repro.predicates.base import GlobalPredicate
from repro.predicates.boolean import CNFPredicate, Clause
from repro.predicates.conjunctive import ConjunctivePredicate
from repro.predicates.local import LocalPredicate
from repro.predicates.relational import RelationalSumPredicate, Relop
from repro.predicates.symmetric import SymmetricPredicate
from repro.slicing.slice import ConjunctiveSlice

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids the cycle
    from repro.detection.result import DetectionResult

__all__ = [
    "SliceInfo",
    "conjunctive_approximation",
    "slice_info",
    "sliced_definitely_enumerate",
    "sliced_possibly_enumerate",
]

Frontier = Tuple[int, ...]


# ----------------------------------------------------------------------
# Conjunctive over-approximation
# ----------------------------------------------------------------------
def _restrictive(
    computation: Computation, conjunct: LocalPredicate
) -> bool:
    """Does the conjunct reject at least one event of its process?

    Tautological conjuncts constrain nothing — the slice they induce is
    the full lattice — so the approximation drops them (which preserves
    equivalence, not just implication).
    """
    return any(
        not conjunct.holds_after(event)
        for event in computation.events_of(conjunct.process)
    )


def _from_cnf(
    computation: Computation, predicate: CNFPredicate
) -> Optional[Tuple[ConjunctivePredicate, bool]]:
    """Clause projection: keep single-process clauses, drop the rest.

    A clause whose literals all live on one process is itself a local
    predicate of that process; clauses sharing a process merge by
    conjunction into one :class:`LocalPredicate` (a conjunctive predicate
    carries at most one conjunct per process).  Multi-process clauses are
    dropped, which only weakens the predicate — exactly what an
    over-approximation may do.  Returns ``(approximation, exact)`` or
    None when no clause projects.
    """
    by_process: Dict[int, List[Clause]] = {}
    dropped = 0
    for cl in predicate.clauses:
        procs = cl.processes()
        if len(procs) == 1:
            (p,) = procs
            by_process.setdefault(p, []).append(cl)
        else:
            dropped += 1
    if not by_process:
        return None
    conjuncts: List[LocalPredicate] = []
    for p, cls in sorted(by_process.items()):

        def fn(event, _cls=tuple(cls)) -> bool:
            return all(
                any(lit.holds_after(event) for lit in c.literals)
                for c in _cls
            )

        conjunct = LocalPredicate(p, fn, f"cnf-projection@p{p}")
        if _restrictive(computation, conjunct):
            conjuncts.append(conjunct)
    if not conjuncts:
        return None
    return ConjunctivePredicate(conjuncts), dropped == 0


def _from_sum_interval(
    computation: Computation,
    variable: str,
    lo: Optional[int],
    hi: Optional[int],
    as_bool: bool,
) -> Optional[ConjunctivePredicate]:
    """Per-process value bounds for ``lo <= sum(variable) <= hi``.

    If the sum lies in ``[lo, hi]`` then each process's own value must lie
    in ``[lo - Σ_{q≠p} max_q, hi - Σ_{q≠p} min_q]`` — a local predicate
    per process.  Only restrictive conjuncts are kept; returns None when
    the interval constrains no process.
    """
    n = computation.num_processes

    def value_of(event) -> int:
        raw = event.value(variable, False if as_bool else 0)
        return int(bool(raw)) if as_bool else int(raw)

    mins: List[int] = []
    maxs: List[int] = []
    for p in range(n):
        values = [value_of(event) for event in computation.events_of(p)]
        mins.append(min(values))
        maxs.append(max(values))
    total_min, total_max = sum(mins), sum(maxs)
    conjuncts: List[LocalPredicate] = []
    for p in range(n):
        floor = None if lo is None else lo - (total_max - maxs[p])
        ceil = None if hi is None else hi - (total_min - mins[p])

        def fn(event, _lo=floor, _hi=ceil) -> bool:
            v = value_of(event)
            if _lo is not None and v < _lo:
                return False
            if _hi is not None and v > _hi:
                return False
            return True

        conjunct = LocalPredicate(p, fn, f"sum-bound@p{p}")
        if _restrictive(computation, conjunct):
            conjuncts.append(conjunct)
    if not conjuncts:
        return None
    return ConjunctivePredicate(conjuncts)


def _sum_interval(
    predicate: RelationalSumPredicate,
) -> Optional[Tuple[Optional[int], Optional[int]]]:
    """The interval of sums on which the relational predicate holds."""
    k = predicate.constant
    relop = predicate.relop
    if relop is Relop.LT:
        return None, k - 1
    if relop is Relop.LE:
        return None, k
    if relop is Relop.GT:
        return k + 1, None
    if relop is Relop.GE:
        return k, None
    if relop is Relop.EQ:
        return k, k
    return None  # NE constrains no per-process interval


def conjunctive_approximation(
    computation: Computation,
    predicate: GlobalPredicate,
    infer: bool = True,
) -> Optional[Tuple[ConjunctivePredicate, bool]]:
    """A conjunctive B' with ``B ⟹ B'``, or None when none is useful.

    Returns ``(approximation, exact)``; ``exact`` means B' is equivalent
    to B, so the slice contains *exactly* the satisfying cuts.  A useless
    approximation (every conjunct tautological — the slice would be the
    whole lattice) reports None, which the dispatchers treat as "run the
    unsliced engine".

    When ``infer`` is True (the default) an opaque predicate with no
    structural approximation is handed to the static classifier
    (:mod:`repro.analysis.classify`); a differentially validated
    certificate's conjunctive over-approximation bounds the enumeration
    box exactly like a structural one.
    """
    if isinstance(predicate, ConjunctivePredicate):
        return predicate, True
    if isinstance(predicate, LocalPredicate):
        return ConjunctivePredicate([predicate]), True
    if isinstance(predicate, CNFPredicate):
        return _from_cnf(computation, predicate)
    if isinstance(predicate, RelationalSumPredicate):
        interval = _sum_interval(predicate)
        if interval is None:
            return None
        approx = _from_sum_interval(
            computation, predicate.variable, *interval, as_bool=False
        )
        return None if approx is None else (approx, False)
    if isinstance(predicate, SymmetricPredicate):
        if not predicate.counts:
            # Empty count set: the predicate holds nowhere; any
            # unsatisfiable conjunct makes the slice (correctly) empty.
            never = LocalPredicate(0, lambda event: False, "false")
            return ConjunctivePredicate([never]), True
        lo, hi = min(predicate.counts), max(predicate.counts)
        approx = _from_sum_interval(
            computation, predicate.variable, lo, hi, as_bool=True
        )
        if approx is None:
            return None
        exact = predicate.counts == frozenset(range(lo, hi + 1))
        return approx, exact
    if infer:
        return _inferred_approximation(computation, predicate)
    return None


def _inferred_approximation(
    computation: Computation, predicate: GlobalPredicate
) -> Optional[Tuple[ConjunctivePredicate, bool]]:
    """Classifier-inferred over-approximation for opaque predicates.

    Tautological conjuncts are dropped (preserving equivalence, so the
    certificate's ``exact`` flag survives the filter); None when the
    classifier finds nothing or nothing restrictive remains.
    """
    from repro.analysis.classify import cached_approximation

    inferred = cached_approximation(predicate, computation)
    if inferred is None:
        return None
    approximation, exact = inferred
    conjuncts = [
        c
        for c in approximation.conjuncts
        if _restrictive(computation, c)
    ]
    if not conjuncts:
        return None
    return ConjunctivePredicate(conjuncts), exact


# ----------------------------------------------------------------------
# Slice handles
# ----------------------------------------------------------------------
@dataclass
class SliceInfo:
    """One predicate's slice handle: approximation, slice, and box."""

    computation: Computation
    predicate: GlobalPredicate
    approximation: Optional[ConjunctivePredicate]
    exact: bool
    slice: Optional[ConjunctiveSlice]

    @property
    def useful(self) -> bool:
        """Did a non-trivial conjunctive over-approximation exist?"""
        return self.slice is not None

    @property
    def empty(self) -> bool:
        """True iff the slice (hence the satisfying-cut set) is empty."""
        return self.slice is not None and self.slice.empty

    @property
    def bounds(self) -> Optional[Tuple[Frontier, Frontier]]:
        """``(least, greatest)`` frontier tuples, or None when unusable."""
        if self.slice is None:
            return None
        return self.slice.bounds_frontiers()

    def reduction(self) -> float:
        """Frontier-space contraction factor of the slice bounding box.

        The ratio of the full frontier-space volume (product of the
        per-process event counts) to the box volume; 1.0 when slicing was
        not useful, the full volume when the slice is empty (the whole
        lattice is skipped).
        """
        lengths = [
            len(self.computation.events_of(p))
            for p in range(self.computation.num_processes)
        ]
        full = 1.0
        for length in lengths:
            full *= length
        if self.slice is None:
            return 1.0
        bounds = self.slice.bounds_frontiers()
        if bounds is None:
            return full
        least, greatest = bounds
        box = 1.0
        for lo, hi in zip(least, greatest):
            box *= hi - lo + 1
        return full / box


def slice_info(
    computation: Computation,
    predicate: GlobalPredicate,
    infer: bool = True,
) -> SliceInfo:
    """Compute the predicate's conjunctive approximation and its slice."""
    approx = conjunctive_approximation(computation, predicate, infer=infer)
    if approx is None:
        return SliceInfo(computation, predicate, None, False, None)
    approximation, exact = approx
    return SliceInfo(
        computation,
        predicate,
        approximation,
        exact,
        ConjunctiveSlice(computation, approximation),
    )


# ----------------------------------------------------------------------
# Slice-first enumeration engines
# ----------------------------------------------------------------------
def _emit_slice_metrics(reduction: float, pruned: int) -> None:
    if not STATE.enabled:
        return
    registry().gauge("perf.slice.reduction").set(reduction)
    if pruned:
        registry().counter("perf.slice.cuts_pruned").inc(pruned)


def _sliced(
    engine,
    modality: str,
    computation: Computation,
    predicate: GlobalPredicate,
    infer: bool,
) -> "DetectionResult":
    """Run an enumeration ``engine`` on the predicate's slice box.

    The body of both slice-first engines: the unsliced engine when no
    useful approximation exists, False without a walk on an empty slice,
    else the engine on the box, relabelled ``slice:``.
    """
    from repro.detection.result import DetectionResult

    info = slice_info(computation, predicate, infer=infer)
    if not info.useful:
        return engine(computation, predicate)
    with span("engine.slice", modality=modality, exact=info.exact) as sp:
        reduction = info.reduction()
        if info.empty:
            stats = StatCounters("engine.slice")
            stats.inc("cuts_explored", 0)
            stats.inc("cuts_pruned", 0)
            stats.set("reduction", reduction)
            sp.set(empty=True, holds=False, reduction=reduction)
            _emit_slice_metrics(reduction, 0)
            return DetectionResult(
                holds=False, algorithm="slice", stats=stats.as_dict()
            )
        inner = engine(computation, predicate, bounds=info.bounds)
        pruned = int(inner.stats.get("cuts_pruned", 0))
        stats = dict(inner.stats)
        stats["reduction"] = reduction
        sp.set(
            holds=inner.holds,
            cuts_explored=stats.get("cuts_explored"),
            reduction=reduction,
        )
        _emit_slice_metrics(reduction, pruned)
        return DetectionResult(
            holds=inner.holds,
            witness=inner.witness,
            algorithm="slice:" + inner.algorithm,
            stats=stats,
        )


def sliced_possibly_enumerate(
    computation: Computation,
    predicate: GlobalPredicate,
    infer: bool = True,
) -> "DetectionResult":
    """``possibly(B)`` by enumeration restricted to B's slice box.

    The enumeration fallback of :func:`repro.detection.api.possibly`.
    The witness (when found) is a minimum-size satisfying cut — the
    same guarantee the unsliced level-order walk gives.
    """
    from repro.detection.cooper_marzullo import possibly_enumerate

    return _sliced(
        possibly_enumerate, "possibly", computation, predicate, infer
    )


def sliced_definitely_enumerate(
    computation: Computation,
    predicate: GlobalPredicate,
    infer: bool = True,
) -> "DetectionResult":
    """``definitely(B)`` by avoidance search with slice-box pruning.

    The one exhaustive ``definitely`` search, shared by
    :func:`repro.detection.api.detect` and the relational-sum and
    symmetric avoidance searches.  Cuts outside the box cannot satisfy
    B, so the search never evaluates B on them; the moment it climbs
    above the box an avoiding run exists, so it answers False at once.
    An empty slice answers False outright (every run avoids B).
    """
    from repro.detection.cooper_marzullo import definitely_enumerate

    return _sliced(
        definitely_enumerate, "definitely", computation, predicate, infer
    )
