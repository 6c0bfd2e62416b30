"""Stoller–Schneider decomposition: arbitrary CNF via conjunctive scans.

The paper's related work (its reference [15]) describes detecting a
predicate "satisfying certain structure by reducing the problem to
multiple predicate detection problems each of which is solvable using
Garg and Waldecker's algorithm", practical when "the number of new
predicate detection problems generated is not too large".

For a CNF predicate — singular or not — that decomposition is: choose one
literal from every clause; the conjunction of the chosen literals is a
*conjunctive* predicate (literals landing on the same process AND together
into one local predicate), decidable by CPDHB in polynomial time; and

    ``possibly(CNF)  <=>  OR over all choices of possibly(conjunction)``.

(⇐ is monotone weakening; ⇒ holds because a witness cut satisfies some
literal of every clause — pick those.)  The number of sub-problems is the
product of the clause widths, so this engine is exponential in the number
of clauses in the worst case — consistent with the paper's Theorem 1 — but
each sub-problem is cheap and, unlike lattice enumeration, the cost is
independent of the trace length beyond the linear scan.

Choices whose chosen literals are contradictory on a process (``x`` and
``not x``) are skipped without a scan.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Tuple

from repro.computation import Computation
from repro.detection.garg_waldecker import SelectionScan, selection_witness
from repro.detection.result import DetectionResult
from repro.events import EventId
from repro.obs import StatCounters, span
from repro.perf.causality import CausalityIndex
from repro.predicates.boolean import CNFPredicate
from repro.predicates.local import Literal

__all__ = ["detect_cnf_by_literal_choice"]


def _true_events_for_conjunction(
    index: CausalityIndex, literals: Sequence[Literal]
) -> Sequence[EventId]:
    """Events of the literals' one process where all of them hold.

    The intersection of the literals' memoized true-event lists, in local
    order.
    """
    first, *rest = [index.literal_true_events(lit) for lit in literals]
    if not rest:
        return first
    others = [set(trues) for trues in rest]
    return [e for e in first if all(e in trues for trues in others)]


def detect_cnf_by_literal_choice(
    computation: Computation, predicate: CNFPredicate
) -> DetectionResult:
    """Decide ``possibly`` of an arbitrary CNF predicate (Stoller–Schneider).

    Works for non-singular predicates too.  Returns a witness cut when the
    predicate possibly holds; ``stats`` reports the number of literal
    combinations, how many were contradictory (skipped), and how many
    CPDHB invocations ran.
    """
    clause_literals: List[Tuple[Literal, ...]] = [
        cl.literals for cl in predicate.clauses
    ]
    total = math.prod(len(lits) for lits in clause_literals)
    with span(
        "engine.stoller-schneider",
        clauses=len(clause_literals),
        combinations=total,
    ) as sp:
        index = CausalityIndex.of(computation)
        stats = StatCounters("engine.stoller-schneider")
        stats.set("combinations", total)
        stats.inc("contradictory", 0)
        stats.inc("invocations", 0)
        for choice in itertools.product(*clause_literals):
            # Group the chosen literals by process; duplicates merge, and a
            # variable chosen in both polarities kills the combination.
            by_process: Dict[int, Dict[Tuple[str, bool], Literal]] = {}
            contradictory = False
            for lit in choice:
                bucket = by_process.setdefault(lit.process, {})
                bucket[(lit.variable, lit.negated)] = lit
                if (lit.variable, not lit.negated) in bucket:
                    contradictory = True
                    break
            if contradictory:
                stats.inc("contradictory")
                continue
            chains = [
                _true_events_for_conjunction(index, list(bucket.values()))
                for _, bucket in sorted(by_process.items())
            ]
            stats.inc("invocations")
            with span("scan.cpdhb") as scan_sp:
                scan = SelectionScan(computation, chains)
                selection = scan.run()
                scan_sp.set(advances=scan.advances)
            if selection is not None:
                index.maybe_flush_metrics()
                sp.set(holds=True)
                return DetectionResult(
                    holds=True,
                    witness=selection_witness(
                        computation, predicate, selection
                    ),
                    algorithm="stoller-schneider",
                    stats=stats.as_dict(),
                )
        index.maybe_flush_metrics()
        sp.set(holds=False)
        return DetectionResult(
            holds=False, algorithm="stoller-schneider", stats=stats.as_dict()
        )
