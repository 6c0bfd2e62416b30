"""CNF-predicate detection → SAT (the easy NP-membership direction).

``possibly(B)`` for a CNF predicate B is in NP: a consistent cut is a
polynomial certificate.  This module makes that membership executable by
encoding "some consistent cut satisfies B" as a propositional formula and
solving it with the library's DPLL solver.  The encoder works for *any*
CNF predicate (singular or not), which makes it a valuable independent
oracle: the tests cross-check every structured detection algorithm against
it.

Encoding, for a computation with events ``(p, i)``:

* ``s[p,i]`` (i >= 1): event i of process p is inside the cut;
  prefix-closure clauses ``s[p,i] <- s[p,i+1]`` and message clauses
  ``s[send] <- s[recv]`` make assignments correspond exactly to consistent
  cuts;
* ``f[p,i]`` (i >= 0): the cut's frontier on p is event i, i.e.
  ``s[p,i] and not s[p,i+1]`` (with the boundary conventions for the
  initial and final events);
* each predicate clause becomes the disjunction of ``f[t]`` over the true
  events t of its literals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.computation import Computation, Cut
from repro.events import EventId
from repro.predicates.boolean import CNFPredicate
from repro.predicates.local import true_events
from repro.reductions.sat import Assignment, CNFFormula, dpll_solve

__all__ = ["DetectionEncoding", "encode_possibly", "possibly_via_sat"]


class DetectionEncoding:
    """The SAT encoding of one ``possibly(B)`` query.

    Attributes:
        formula: The encoded CNF formula.
        computation: The encoded computation.
    """

    def __init__(self, computation: Computation, predicate: CNFPredicate):
        self.computation = computation
        self.predicate = predicate
        self._next_var = 1
        self._included: Dict[EventId, int] = {}
        self._frontier: Dict[EventId, int] = {}
        clauses: List[Tuple[int, ...]] = []

        # Inclusion variables and prefix-closure.
        for p in range(computation.num_processes):
            events = computation.events_of(p)
            for ev in events[1:]:
                self._included[ev.event_id] = self._fresh()
            for i in range(2, len(events)):
                clauses.append(
                    (self._included[(p, i - 1)], -self._included[(p, i)])
                )

        # Message closure: receive included -> send included.
        for send, recv in computation.messages:
            clauses.append((self._included[send], -self._included[recv]))

        # Frontier variables f[p,i] <-> s[p,i] & ~s[p,i+1].
        for p in range(computation.num_processes):
            events = computation.events_of(p)
            for ev in events:
                eid = ev.event_id
                f = self._fresh()
                self._frontier[eid] = f
                here = self._included.get(eid)  # None for the initial event
                nxt_id = computation.successor(eid)
                nxt = self._included[nxt_id] if nxt_id is not None else None
                # f -> s[p,i]
                if here is not None:
                    clauses.append((-f, here))
                # f -> ~s[p,i+1]
                if nxt is not None:
                    clauses.append((-f, -nxt))
                # (s[p,i] & ~s[p,i+1]) -> f
                reverse: List[int] = [f]
                if here is not None:
                    reverse.append(-here)
                if nxt is not None:
                    reverse.append(nxt)
                clauses.append(tuple(reverse))

        # Predicate clauses.
        for cl in predicate.clauses:
            options: List[int] = []
            for lit in cl.literals:
                for t in true_events(computation, lit):
                    options.append(self._frontier[t])
            if not options:
                # The clause can never be satisfied: encode falsity via a
                # fresh variable forced both ways.
                v = self._fresh()
                clauses.append((v,))
                clauses.append((-v,))
                continue
            clauses.append(tuple(dict.fromkeys(options)))

        self.formula = CNFFormula(tuple(clauses))

    def _fresh(self) -> int:
        var = self._next_var
        self._next_var += 1
        return var

    def cut_from_assignment(self, assignment: Assignment) -> Cut:
        """Decode a satisfying assignment into the witness cut."""
        frontier = [1] * self.computation.num_processes
        for (p, i), var in self._included.items():
            if assignment.get(var, False):
                frontier[p] = max(frontier[p], i + 1)
        cut = Cut(self.computation, frontier)
        # Raises rather than asserts, so the check survives ``python -O``.
        if not cut.is_consistent():
            raise AssertionError("encoding admitted an inconsistent cut")
        return cut


def encode_possibly(
    computation: Computation, predicate: CNFPredicate
) -> DetectionEncoding:
    """Build the SAT encoding of ``possibly(predicate)``."""
    return DetectionEncoding(computation, predicate)


def possibly_via_sat(
    computation: Computation, predicate: CNFPredicate
) -> Optional[Cut]:
    """Decide ``possibly`` through the SAT encoding; witness cut or None."""
    encoding = encode_possibly(computation, predicate)
    assignment = dpll_solve(encoding.formula)
    if assignment is None:
        return None
    witness = encoding.cut_from_assignment(assignment)
    if not predicate.evaluate(witness):
        raise AssertionError("SAT witness does not satisfy the predicate")
    return witness
