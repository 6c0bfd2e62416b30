"""The paper's Figure 3: non-monotone 3-SAT → singular 2-CNF detection.

This is the construction behind Theorem 1 (NP-completeness of singular
k-CNF detection), implemented as an executable reduction:

* every clause gets (up to) two fresh processes ``a_i`` and ``b_i`` hosting
  boolean variables ``x`` — the detection predicate is the singular CNF
  ``AND_i (x@a_i v x@b_i)``;
* every *literal occurrence* of the clause gets one *true event*:

  - two-literal clause ``(l1 v l2)``: ``a_i`` runs ``true(l1), false``;
    ``b_i`` runs ``true(l2), false``;
  - three-literal clause (non-monotone, so it has a positive literal ``lp``
    and a negative literal ``ln``): ``a_i`` runs ``true(lp), false,
    true(ln)``; ``b_i`` runs ``true(l3), false`` for the remaining literal;
  - one-literal clauses (allowed here, though the paper assumes them away)
    use only ``a_i`` with ``true(l), false`` and the predicate clause
    ``(x@a_i)``;

* for every pair of *conflicting* occurrences — ``v`` positive in one
  clause, ``v`` negative in another — a message is sent from the successor
  of the positive occurrence's true event (a false event) to the negative
  occurrence's true event, making the two true events inconsistent.

Tautological clauses are dropped up front (they are always satisfied and
would otherwise put conflicting occurrences on one clause's processes).
The resulting computation is acyclic — on every process all sends precede
all receives — and two true events are inconsistent iff their literals
conflict, so the formula is satisfiable iff ``possibly(B)`` holds.
:func:`assignment_from_witness` and :func:`witness_from_assignment`
translate certificates in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.computation import (
    Computation,
    ComputationBuilder,
    Cut,
    least_consistent_cut,
)
from repro.events import EventId
from repro.predicates.boolean import CNFPredicate, Clause, singular_cnf
from repro.predicates.local import Literal as PredicateLiteral
from repro.reductions.sat import Assignment, CNFFormula
from repro.reductions.sat import Literal as SatLiteral

__all__ = [
    "DetectionInstance",
    "satisfiability_to_detection",
    "assignment_from_witness",
    "witness_from_assignment",
]

#: Name of the boolean variable hosted by every gadget process.
GADGET_VARIABLE = "x"


@dataclass(frozen=True)
class DetectionInstance:
    """Output of the Figure-3 reduction.

    Attributes:
        computation: The gadget computation.
        predicate: The singular CNF detection predicate.
        literal_of: Maps each true event to the SAT literal it represents.
        events_of_literal: Maps each SAT literal to its true events (one per
            occurrence of the literal in the formula).
        formula: The source formula (after dropping tautological clauses).
    """

    computation: Computation
    predicate: CNFPredicate
    literal_of: Mapping[EventId, SatLiteral]
    events_of_literal: Mapping[SatLiteral, Tuple[EventId, ...]]
    #: Per clause, the true event of each of its literal occurrences.
    clause_occurrences: Tuple[Mapping[SatLiteral, EventId], ...]
    formula: CNFFormula


def satisfiability_to_detection(formula: CNFFormula) -> DetectionInstance:
    """Build the Figure-3 gadget for a non-monotone 3-CNF formula.

    Raises:
        ValueError: If the formula is not in non-monotone 3-CNF (convert
            with :func:`repro.reductions.nonmonotone.to_nonmonotone_3cnf`).
    """
    formula = formula.without_tautologies()
    # Deduplicate repeated literals within a clause; the gadget hosts one
    # true event per occurrence and repeated occurrences add nothing.
    formula = CNFFormula(
        tuple(tuple(dict.fromkeys(cl)) for cl in formula.clauses)
    )
    if not formula.is_nonmonotone_3cnf():
        raise ValueError("formula must be in non-monotone 3-CNF")

    # ------------------------------------------------------------------
    # Pass 1: lay out processes and the positions of true events.
    # Each entry of ``layout`` is (process, [literals in local order]).
    # ------------------------------------------------------------------
    layout: List[Tuple[int, List[SatLiteral]]] = []
    clause_processes: List[List[int]] = []  # processes of each clause gadget
    predicate_clauses: List[Clause] = []
    process = 0
    for cl in formula.clauses:
        if len(cl) == 1:
            layout.append((process, [cl[0]]))
            clause_processes.append([process])
            predicate_clauses.append(
                Clause([PredicateLiteral(process, GADGET_VARIABLE)])
            )
            process += 1
            continue
        if len(cl) == 2:
            process_a_literals = [cl[0]]
            process_b_literal = cl[1]
        else:
            positive = next(lit for lit in cl if lit > 0)
            negative = next(lit for lit in cl if lit < 0)
            third = next(lit for lit in cl if lit not in (positive, negative))
            process_a_literals = [positive, negative]
            process_b_literal = third
        layout.append((process, process_a_literals))
        layout.append((process + 1, [process_b_literal]))
        clause_processes.append([process, process + 1])
        predicate_clauses.append(
            Clause(
                [
                    PredicateLiteral(process, GADGET_VARIABLE),
                    PredicateLiteral(process + 1, GADGET_VARIABLE),
                ]
            )
        )
        process += 2

    # ------------------------------------------------------------------
    # Pass 2: compute event positions.  A process with literals [l] runs
    # [true(l), false]; with [lp, ln] it runs [true(lp), false, true(ln)].
    # ------------------------------------------------------------------
    true_event_of: Dict[Tuple[int, int], EventId] = {}  # (process, slot) -> id
    literal_at: Dict[EventId, SatLiteral] = {}
    for proc, literals in layout:
        if len(literals) == 1:
            positions = [(proc, 1)]
        else:
            positions = [(proc, 1), (proc, 3)]
        for slot, (p, idx) in enumerate(positions):
            true_event_of[(proc, slot)] = (p, idx)
            literal_at[(p, idx)] = literals[slot]

    # Conflicting occurrence pairs: (positive true event, negative true event).
    arrows: List[Tuple[EventId, EventId]] = []
    positives: Dict[int, List[EventId]] = {}
    negatives: Dict[int, List[EventId]] = {}
    for eid, lit in literal_at.items():
        bucket = positives if lit > 0 else negatives
        bucket.setdefault(abs(lit), []).append(eid)
    for var, pos_events in sorted(positives.items()):
        for t_pos in sorted(pos_events):
            for t_neg in sorted(negatives.get(var, [])):
                successor = (t_pos[0], t_pos[1] + 1)  # the false event
                arrows.append((successor, t_neg))

    senders = {send for send, _ in arrows}
    receivers = {recv for _, recv in arrows}

    # ------------------------------------------------------------------
    # Pass 3: build the computation with correct event kinds.
    # ------------------------------------------------------------------
    builder = ComputationBuilder(process)
    for proc, literals in layout:
        builder.init_values(proc, **{GADGET_VARIABLE: False})
        length = 2 if len(literals) == 1 else 3
        for idx in range(1, length + 1):
            eid = (proc, idx)
            is_true_event = eid in literal_at
            value = {GADGET_VARIABLE: is_true_event}
            if eid in senders and eid in receivers:
                raise AssertionError(
                    "gadget event cannot be both send and receive"
                )
            if eid in senders:
                created = builder.send(proc, **value)
            elif eid in receivers:
                created = builder.receive(proc, **value)
            else:
                created = builder.internal(proc, **value)
            if created != eid:
                raise AssertionError(
                    f"gadget event {eid} was built as {created}"
                )
    for send, recv in arrows:
        builder.message(send, recv)
    computation = builder.build()

    events_of_literal: Dict[SatLiteral, List[EventId]] = {}
    for eid, lit in literal_at.items():
        events_of_literal.setdefault(lit, []).append(eid)

    literals_of_process = {proc: lits for proc, lits in layout}
    clause_occurrences: List[Dict[SatLiteral, EventId]] = []
    for procs in clause_processes:
        occurrences: Dict[SatLiteral, EventId] = {}
        for proc in procs:
            for slot, lit in enumerate(literals_of_process[proc]):
                occurrences[lit] = true_event_of[(proc, slot)]
        clause_occurrences.append(occurrences)

    return DetectionInstance(
        computation=computation,
        predicate=singular_cnf(*predicate_clauses),
        literal_of=dict(literal_at),
        events_of_literal={
            lit: tuple(sorted(ids)) for lit, ids in events_of_literal.items()
        },
        clause_occurrences=tuple(clause_occurrences),
        formula=formula,
    )


def assignment_from_witness(
    instance: DetectionInstance, witness: Cut
) -> Assignment:
    """Read a satisfying assignment off a witness cut (paper, Section 3.1).

    A literal is made true when the cut passes through one of its true
    events; remaining variables default to False.  Raises AssertionError
    (explicitly, so ``python -O`` keeps it) if the cut encodes conflicting
    literals (impossible for consistent cuts of a correctly built gadget)
    or does not satisfy the formula.
    """
    assignment: Assignment = {}
    for eid, lit in instance.literal_of.items():
        if witness.passes_through(eid):
            var, value = abs(lit), lit > 0
            if assignment.get(var, value) != value:
                raise AssertionError(
                    f"witness assigns variable {var} both polarities"
                )
            assignment[var] = value
    for var in instance.formula.variables():
        assignment.setdefault(var, False)
    if not instance.formula.evaluate(assignment):
        raise AssertionError(
            "witness cut does not induce a satisfying assignment"
        )
    return assignment


def witness_from_assignment(
    instance: DetectionInstance, assignment: Assignment
) -> Cut:
    """Build a witness cut from a satisfying assignment.

    Picks, per clause, one literal that the assignment satisfies, and takes
    the least consistent cut through the corresponding true events.  Raises
    ValueError when the assignment does not satisfy the formula, and
    AssertionError (explicitly, so ``python -O`` keeps it) when the cut
    does not exist or does not satisfy the gadget's predicate.
    """
    selection: List[EventId] = []
    for index, cl in enumerate(instance.formula.clauses):
        satisfied = [
            lit
            for lit in cl
            if (lit > 0) == assignment.get(abs(lit), False)
        ]
        if not satisfied:
            raise ValueError("assignment does not satisfy the formula")
        chosen = satisfied[0]
        selection.append(instance.clause_occurrences[index][chosen])
    witness = least_consistent_cut(instance.computation, selection)
    if witness is None:
        raise AssertionError(
            "true events of jointly-satisfiable literals must be consistent"
        )
    if not instance.predicate.evaluate(witness):
        raise AssertionError(
            f"witness {witness.frontier} does not satisfy the gadget"
        )
    return witness
