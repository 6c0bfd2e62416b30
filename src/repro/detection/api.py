"""One-call detection facade.

:func:`possibly` and :func:`definitely` accept any
:class:`~repro.predicates.base.GlobalPredicate` and dispatch to the fastest
sound engine for its structure:

===========================  =============================================
predicate class              possibly engine
===========================  =============================================
ConjunctivePredicate, local  Garg–Waldecker CPDHB scan (polynomial)
CNFPredicate, 1-CNF          CPDHB scan via conjunctive view (polynomial)
CNFPredicate, singular       CPDSC special case when receive-/send-ordered,
                             else chain-choice enumeration (Section 3.3)
RelationalSumPredicate       min-cut / Theorem 7 / exact engines (Sec. 4)
SymmetricPredicate           ±1 count algorithm (Section 4.3, polynomial)
OrPredicate                  distribute possibly over the disjuncts
anything else                slice-bounded Cooper–Marzullo enumeration
===========================  =============================================

``definitely`` runs the interval-anchor engine on the same conjunctive
views, the Theorem 7(2) decomposition for unit-step sum
equality and symmetric singletons, and the exact avoidance search
otherwise.  :func:`detect` returns the full :class:`DetectionResult` with
the witness cut and algorithm statistics.

Every enumeration-based path is **slice-first**: the predicate's
conjunctive over-approximation (see :mod:`repro.slicing.dispatch`) bounds
the search to the slice sublattice, falling back to the unsliced engine
when no useful approximation exists — verdicts and witness guarantees
are those of the unsliced engine.

Opaque predicates (``FunctionPredicate``, custom ``evaluate`` overrides)
are **classified first** by default (``infer=True``): the static
classifier of :mod:`repro.analysis.classify` recovers the predicate-class
structure from the callable's source, differentially validates the
rewrite, and dispatch routes through the fast engine of the inferred
class (``algorithm`` prefixed ``classify:``).  Certified-monotone bodies
go to the O(n) stable-predicate engine.  On ``Unclassifiable`` the
enumeration fallback runs unchanged; pass ``infer=False`` to opt out.
"""

from __future__ import annotations

from typing import Optional

from repro.computation import Computation
from repro.obs import STATE, registry, span
from repro.detection.definitely_conjunctive import definitely_conjunctive
from repro.detection.garg_waldecker import detect_conjunctive
from repro.detection.relational_sum import definitely_sum, possibly_sum
from repro.detection.result import DetectionResult
from repro.detection.singular_cnf import (
    detect_cnf_by_literal_choice,
    detect_singular,
)
from repro.detection.stable import detect_stable
from repro.detection.symmetric_detect import (
    definitely_symmetric,
    possibly_symmetric,
)
from repro.predicates.base import (
    AndPredicate,
    ConstantPredicate,
    GlobalPredicate,
    NotPredicate,
    OrPredicate,
)
from repro.predicates.boolean import Clause, CNFPredicate
from repro.predicates.channel import InFlightPredicate
from repro.predicates.conjunctive import (
    ConjunctivePredicate,
    conjunctive_view,
)
from repro.predicates.inequity import InequityPredicate
from repro.predicates.local import LocalPredicate
from repro.predicates.modalities import Modality
from repro.predicates.relational import RelationalSumPredicate
from repro.predicates.symmetric import SymmetricPredicate

__all__ = ["possibly", "definitely", "detect"]

#: Predicate classes dispatch already understands structurally; anything
#: else is *opaque* and eligible for static classification.
_STRUCTURED = (
    AndPredicate,
    CNFPredicate,
    Clause,
    ConjunctivePredicate,
    ConstantPredicate,
    InFlightPredicate,
    InequityPredicate,
    LocalPredicate,
    NotPredicate,
    OrPredicate,
    RelationalSumPredicate,
    SymmetricPredicate,
)


def _is_opaque(predicate: GlobalPredicate) -> bool:
    return not isinstance(predicate, _STRUCTURED)


def detect(
    computation: Computation,
    predicate: GlobalPredicate,
    modality: Modality = Modality.POSSIBLY,
    engine: str = "auto",
    infer: bool = True,
) -> DetectionResult:
    """Full detection result for the given predicate and modality.

    ``engine`` overrides dispatch: ``"auto"`` (default) picks by
    predicate structure; ``"work-optimal"`` is the strict conjunctive
    mode: a conjunctive-viewable ``possibly`` query runs the CPDHB scan
    (no slice bounds, no threads) and any other query raises
    :class:`~repro.predicates.errors.UnsupportedPredicateError`.

    ``infer`` (default True) lets the static classifier
    (:mod:`repro.analysis.classify`) recover class structure from opaque
    predicates — ``FunctionPredicate`` bodies and custom ``evaluate``
    overrides — and dispatch through the inferred fast engine; the
    certificate is differentially validated before it is trusted, and
    ``Unclassifiable`` bodies fall back to the enumeration engines
    exactly as if ``infer=False``.

    When observability is enabled (:mod:`repro.obs`) every query opens a
    root span ``detect.query`` recording the modality, the predicate
    class, and — once dispatch has chosen — the engine that answered.
    """
    if engine not in ("auto", "work-optimal"):
        raise ValueError(f"unknown engine {engine!r}")
    if not isinstance(modality, Modality):
        raise TypeError(
            "modality must be Modality.POSSIBLY or Modality.DEFINITELY, "
            f"not {modality!r}"
        )
    with span(
        "detect.query",
        modality=modality.value,
        predicate=type(predicate).__name__,
    ) as root:
        result = None
        if engine == "work-optimal":
            result = _work_optimal(computation, predicate, modality, infer)
        else:
            if infer and _is_opaque(predicate):
                result = _inferred(computation, predicate, modality)
            if result is None and modality is Modality.POSSIBLY:
                result = _possibly(computation, predicate, infer=infer)
            elif result is None:
                result = _definitely(computation, predicate, infer=infer)
        root.set(engine=result.algorithm, holds=result.holds)
        if STATE.enabled:
            registry().counter("detect.queries").inc()
            registry().counter(f"detect.engine.{result.algorithm}").inc()
        return result


def possibly(
    computation: Computation,
    predicate: GlobalPredicate,
    infer: bool = True,
) -> bool:
    """Does some consistent cut of the computation satisfy the predicate?"""
    return detect(computation, predicate, Modality.POSSIBLY, infer=infer).holds


def definitely(
    computation: Computation,
    predicate: GlobalPredicate,
    infer: bool = True,
) -> bool:
    """Does every run of the computation pass through a satisfying cut?"""
    return detect(
        computation, predicate, Modality.DEFINITELY, infer=infer
    ).holds


def _inferred(
    computation: Computation,
    predicate: GlobalPredicate,
    modality: Modality,
) -> Optional[DetectionResult]:
    """Classify an opaque predicate and dispatch its certificate.

    Returns None when the predicate is unclassifiable, validation
    rejected the certificate, or only a conjunctive over-approximation
    was recovered (the slice-first enumeration path picks that up on its
    own) — the caller then falls back to structural dispatch unchanged.

    A positive witness is checked against the predicate itself: when it
    fails there, the certificate was wrong, and the query is answered as
    with ``infer=False`` (no slice bounds from that certificate either).
    """
    from repro.analysis.classify import classification_for

    with span(
        "engine.classify", predicate=type(predicate).__name__
    ) as sp:
        certificate = classification_for(predicate, computation)
        if certificate is None:
            sp.set(outcome="unclassifiable")
            return None
        if certificate.monotone:
            # Syntactic monotonicity proof: the predicate is stable, so
            # both modalities are decided at the final cut in O(n).
            sp.set(outcome="monotone")
            result = detect_stable(computation, predicate)
        elif certificate.rewrite is not None:
            sp.set(
                outcome="rewrite",
                target=type(certificate.rewrite).__name__,
            )
            if modality is Modality.POSSIBLY:
                result = _possibly(computation, certificate.rewrite)
            else:
                result = _definitely(computation, certificate.rewrite)
        else:
            sp.set(outcome="approximation-only")
            return None
        if (
            result.holds
            and result.witness is not None
            and not predicate.evaluate(result.witness)
        ):
            sp.set(outcome="witness-mismatch")
            if STATE.enabled:
                registry().counter("detect.witness_mismatch").inc()
            if modality is Modality.POSSIBLY:
                return _possibly(computation, predicate, infer=False)
            return _definitely(computation, predicate, infer=False)
        return DetectionResult(
            holds=result.holds,
            witness=result.witness,
            algorithm="classify:" + result.algorithm,
            stats=result.stats,
        )


def _work_optimal(
    computation: Computation,
    predicate: GlobalPredicate,
    modality: Modality,
    infer: bool = True,
) -> DetectionResult:
    """Forced ``engine="work-optimal"`` dispatch: strict conjunctive mode.

    Decides ``possibly`` of conjunctive-viewable predicates (conjunctive,
    local, 1-CNF singular) — including, with ``infer``, opaque predicates
    whose certified rewrite is conjunctive-viewable — with the CPDHB scan;
    anything else is a structural mismatch the caller asked for
    explicitly, so it raises instead of silently falling back.
    """
    from repro.predicates.errors import UnsupportedPredicateError

    if modality is not Modality.POSSIBLY:
        raise UnsupportedPredicateError(
            "the work-optimal engine decides possibly only"
        )
    if infer and _is_opaque(predicate):
        from repro.analysis.classify import classification_for

        certificate = classification_for(predicate, computation)
        if certificate is not None and certificate.conjunctive_view:
            predicate = certificate.rewrite
    conj = conjunctive_view(predicate)
    if conj is None:
        raise UnsupportedPredicateError(
            "the work-optimal engine requires a conjunctive-viewable "
            "predicate"
        )
    return detect_conjunctive(computation, conj)


def _possibly(
    computation: Computation,
    predicate: GlobalPredicate,
    infer: bool = True,
) -> DetectionResult:
    conj = conjunctive_view(predicate)
    if conj is not None:
        return detect_conjunctive(computation, conj)
    if isinstance(predicate, CNFPredicate):
        if predicate.is_singular():
            return detect_singular(computation, predicate, strategy="auto")
        # Non-singular CNF: the Stoller–Schneider decomposition into
        # conjunctive sub-problems (exponential in clauses, but each
        # sub-problem is a linear scan — far cheaper than the lattice).
        return detect_cnf_by_literal_choice(computation, predicate)
    if isinstance(predicate, RelationalSumPredicate):
        return possibly_sum(computation, predicate)
    if isinstance(predicate, SymmetricPredicate):
        return possibly_symmetric(computation, predicate)
    if isinstance(predicate, OrPredicate):
        # possibly distributes over disjunction (paper, Section 4.3).
        with span("engine.disjunction", parts=len(predicate.parts)):
            explored = 0
            for part in predicate.parts:
                result = _possibly(computation, part, infer=infer)
                explored += int(result.stats.get("cuts_explored", 0))
                if result.holds:
                    return DetectionResult(
                        holds=True,
                        witness=result.witness,
                        algorithm="disjunction:" + result.algorithm,
                        stats=result.stats,
                    )
            return DetectionResult(
                holds=False,
                algorithm="disjunction",
                stats={"cuts_explored": explored},
            )
    from repro.slicing.dispatch import sliced_possibly_enumerate

    return sliced_possibly_enumerate(computation, predicate, infer=infer)


def _definitely(
    computation: Computation,
    predicate: GlobalPredicate,
    infer: bool = True,
) -> DetectionResult:
    conj = conjunctive_view(predicate)
    if conj is not None:
        return definitely_conjunctive(computation, conj)
    if isinstance(predicate, RelationalSumPredicate):
        return definitely_sum(computation, predicate)
    if isinstance(predicate, SymmetricPredicate):
        return definitely_symmetric(computation, predicate)
    from repro.slicing.dispatch import sliced_definitely_enumerate

    return sliced_definitely_enumerate(computation, predicate, infer=infer)
