"""Conjunctive predicates.

A *conjunctive predicate* is a conjunction of local predicates, at most one
per process (paper, Section 2.3; Garg–Waldecker).  It is the tractable end
of the spectrum the paper maps: ``possibly`` of a conjunctive predicate is
decidable in polynomial time by the CPDHB scan
(:mod:`repro.detection.garg_waldecker`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.computation import Cut
from repro.predicates.base import GlobalPredicate
from repro.predicates.boolean import CNFPredicate
from repro.predicates.errors import PredicateError
from repro.predicates.local import LocalPredicate

__all__ = [
    "ConjunctivePredicate",
    "conjunctive",
    "conjunctive_from_cnf",
    "conjunctive_view",
]


class ConjunctivePredicate(GlobalPredicate):
    """Conjunction of local predicates on pairwise-distinct processes."""

    def __init__(self, conjuncts: Iterable[LocalPredicate]):
        self.conjuncts: Tuple[LocalPredicate, ...] = tuple(conjuncts)
        if not self.conjuncts:
            raise PredicateError("a conjunctive predicate needs a conjunct")
        seen: Dict[int, LocalPredicate] = {}
        for conj in self.conjuncts:
            if conj.process in seen:
                raise PredicateError(
                    f"two conjuncts on process {conj.process}; conjunctive "
                    "predicates host at most one local predicate per process"
                )
            seen[conj.process] = conj

    def evaluate(self, cut: Cut) -> bool:
        return all(conj.evaluate(cut) for conj in self.conjuncts)

    @property
    def processes(self) -> List[int]:
        """Processes hosting a conjunct, in conjunct order."""
        return [conj.process for conj in self.conjuncts]

    def description(self) -> str:
        return " AND ".join(c.description() for c in self.conjuncts)

    def __repr__(self) -> str:
        return f"ConjunctivePredicate({list(self.conjuncts)!r})"


def conjunctive(*conjuncts: LocalPredicate) -> ConjunctivePredicate:
    """Build a conjunctive predicate from local predicates."""
    return ConjunctivePredicate(conjuncts)


def conjunctive_from_cnf(predicate: CNFPredicate) -> ConjunctivePredicate:
    """View a 1-CNF predicate as a conjunctive predicate.

    Raises :class:`PredicateError` if some clause has more than one literal
    or two clauses share a process.
    """
    conjuncts: List[LocalPredicate] = []
    for cl in predicate.clauses:
        if len(cl) != 1:
            raise PredicateError(
                "only 1-CNF predicates are conjunctive; clause "
                f"{cl.description()} has {len(cl)} literals"
            )
        conjuncts.append(cl.literals[0])
    return ConjunctivePredicate(conjuncts)


def conjunctive_view(
    predicate: GlobalPredicate,
) -> Optional[ConjunctivePredicate]:
    """The predicate as a conjunctive predicate, when it is one.

    A conjunctive predicate is its own view, a local predicate is a
    conjunction of one, and a singular 1-CNF is the conjunction of its
    literals.  Any other predicate has no faithful conjunctive view:
    returns None.
    """
    if isinstance(predicate, ConjunctivePredicate):
        return predicate
    if isinstance(predicate, LocalPredicate):
        return ConjunctivePredicate([predicate])
    if (
        isinstance(predicate, CNFPredicate)
        and predicate.is_conjunctive()
        and predicate.is_singular()
    ):
        return conjunctive_from_cnf(predicate)
    return None
