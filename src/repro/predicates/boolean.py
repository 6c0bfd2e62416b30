"""CNF predicates over per-process boolean variables.

The paper's headline object is the *singular k-CNF predicate*: a CNF whose
clauses contain variables from pairwise-disjoint sets of processes
(Section 2.3).  A singular 1-CNF is exactly a conjunctive predicate; the
paper proves singular 2-CNF detection NP-complete (Theorem 1), closing the
gap between the two.

:class:`Clause` is a disjunction of :class:`~repro.predicates.local.Literal`;
:class:`CNFPredicate` is a conjunction of clauses and knows whether it is
singular, what its clause *groups* (process sets) are, and how to evaluate
itself on a cut.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.computation import Cut
from repro.predicates.base import GlobalPredicate
from repro.predicates.errors import NotSingularError, PredicateError
from repro.predicates.local import Literal

__all__ = ["Clause", "CNFPredicate", "clause", "cnf", "singular_cnf"]


class Clause(GlobalPredicate):
    """A disjunction of literals."""

    def __init__(self, literals: Iterable[Literal]):
        self.literals: Tuple[Literal, ...] = tuple(literals)
        if not self.literals:
            raise PredicateError("a clause needs at least one literal")
        #: Structural identity: the set of the literals' keys.  Equal for
        #: clauses parsed from the same text, so per-clause memos hit.
        self.key: FrozenSet[Tuple[int, str, bool]] = frozenset(
            lit.key for lit in self.literals
        )

    def evaluate(self, cut: Cut) -> bool:
        return any(lit.evaluate(cut) for lit in self.literals)

    def processes(self) -> FrozenSet[int]:
        """Set of processes hosting this clause's variables.

        The paper calls this the clause's *group* ``P_i``.
        """
        return frozenset(lit.process for lit in self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def description(self) -> str:
        return "(" + " OR ".join(lit.description() for lit in self.literals) + ")"

    def __repr__(self) -> str:
        return f"Clause({list(self.literals)!r})"


class CNFPredicate(GlobalPredicate):
    """A conjunction of clauses (CNF over per-process boolean variables)."""

    def __init__(self, clauses: Iterable[Clause]):
        self.clauses: Tuple[Clause, ...] = tuple(clauses)
        if not self.clauses:
            raise PredicateError("a CNF predicate needs at least one clause")

    def evaluate(self, cut: Cut) -> bool:
        return all(cl.evaluate(cut) for cl in self.clauses)

    @property
    def max_clause_size(self) -> int:
        """k such that the predicate is in k-CNF (maximum clause width)."""
        return max(len(cl) for cl in self.clauses)

    def is_singular(self) -> bool:
        """True iff no two clauses contain variables from the same process."""
        seen: Set[int] = set()
        for cl in self.clauses:
            procs = cl.processes()
            if seen & procs:
                return False
            seen |= procs
        return True

    def require_singular(self) -> None:
        """Raise :class:`NotSingularError` unless the predicate is singular."""
        seen: Set[int] = set()
        for cl in self.clauses:
            overlap = seen & cl.processes()
            if overlap:
                raise NotSingularError(
                    f"processes {sorted(overlap)} appear in more than one clause"
                )
            seen |= cl.processes()

    def groups(self) -> List[FrozenSet[int]]:
        """The process set of each clause, in clause order."""
        return [cl.processes() for cl in self.clauses]

    def is_conjunctive(self) -> bool:
        """True iff every clause has exactly one literal (1-CNF)."""
        return all(len(cl) == 1 for cl in self.clauses)

    def description(self) -> str:
        return " AND ".join(cl.description() for cl in self.clauses)

    def __repr__(self) -> str:
        return f"CNFPredicate({list(self.clauses)!r})"


def clause(*literals: Literal) -> Clause:
    """Build a clause from literals."""
    return Clause(literals)


def cnf(*clauses: Clause) -> CNFPredicate:
    """Build a CNF predicate from clauses (no singularity requirement)."""
    return CNFPredicate(clauses)


def singular_cnf(*clauses: Clause) -> CNFPredicate:
    """Build a CNF predicate, verifying the singularity condition."""
    predicate = CNFPredicate(clauses)
    predicate.require_singular()
    return predicate
