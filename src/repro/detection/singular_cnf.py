"""Detection of singular k-CNF predicates (paper, Section 3).

A singular k-CNF predicate assigns each clause a *group* of processes, and
no process serves two clauses.  By Observation 1, ``possibly(B)`` holds iff
there are pairwise-consistent *clause-true events*, one per group (an event
is clause-true when it makes some literal of its process true).

The general problem is NP-complete (Theorem 1; see
:mod:`repro.reductions.sat_to_detection`), so this module offers the
paper's full algorithm menu:

* :func:`detect_special_case` — polynomial when the computation is
  receive-ordered or send-ordered with respect to the groups (Section 3.2,
  via the CPDSC meta-process scan);
* :func:`detect_by_process_choice` — Section 3.3, first algorithm: try all
  ``prod |G_j|`` choices of one process per group and run the polynomial
  CPDHB scan on each (at most ``k^m`` invocations);
* :func:`detect_by_chain_choice` — Section 3.3, second algorithm: cover the
  true events of each group with a *minimum* set of causal chains and try
  all chain combinations (at most ``prod c_j`` invocations with
  ``c_j <= |G_j|`` — an exponential reduction whenever chains are fewer
  than processes);
* :func:`detect_singular` — facade choosing the cheapest applicable engine;
* :func:`detect_cnf_by_literal_choice` — any CNF, singular or not, by the
  Stoller–Schneider decomposition the paper's related work cites (its
  reference [15]): one literal per clause, each choice a conjunctive
  sub-problem decided by CPDHB.

All engines return a witness cut when the predicate possibly holds.

The three sweeps share one driver, :func:`_detect_by_combinations`: CPDHB
over every combination of one chain per group.  The literal-choice sweep
makes each clause a group and each literal a chain (its true events), so
``possibly(CNF)`` is the OR over the ``prod |C_j|`` literal choices: ⇐ is
monotone weakening, and ⇒ holds because a witness cut satisfies some
literal of every clause.  A non-singular CNF can put two chosen literals
on one process, and the scan needs no merging for that:

* A selection holding ``(p, i)`` and ``(p, j)`` with ``i < j`` always
  eliminates ``(p, i)``, because ``clk(p, j)[p] = j + 1 > i + 1`` — so
  only a selection where one event serves both literals is consistent,
  and such an event is exactly one where both literals hold.
* A contradictory pair (``x`` and ``not x`` on one process) has no common
  event, so its combination fails in the scan.

Combinations run in ``itertools.product`` order and the first successful
one yields its least consistent selection, so verdict and witness do not
depend on the kernel (batched or per-rank) or on the worker count.

The driver scans the first rank chunk itself and forks a pool
(:mod:`repro.perf.parallel`) for the rest only when that chunk failed on
a large sweep in a multi-core, single-threaded process
(:func:`_pool_workers`).
"""

from __future__ import annotations

import math
import os
import threading
from typing import List, Optional, Sequence

from repro.computation import Computation
from repro.detection.cooper_marzullo import possibly_enumerate
from repro.detection.cpdsc import (
    detect_receive_ordered,
    detect_send_ordered,
)
from repro.detection.garg_waldecker import selection_witness
from repro.detection.result import DetectionResult
from repro.detection.work_optimal import (
    POOL_MIN_COMBINATIONS,
    RankScanner,
    rank_chunks,
)
from repro.events import EventId
from repro.obs import STATE, StatCounters, registry, span
from repro.obs.progress import tracker
from repro.perf.causality import CausalityIndex
from repro.predicates.boolean import Clause, CNFPredicate
from repro.predicates.errors import UnsupportedPredicateError

__all__ = [
    "chain_choice_table",
    "clause_true_events",
    "clause_true_events_on",
    "detect_special_case",
    "detect_by_process_choice",
    "detect_by_chain_choice",
    "detect_cnf_by_literal_choice",
    "detect_singular",
    "process_choice_table",
]


def clause_true_events_on(
    computation: Computation, cl: Clause, process: int
) -> List[EventId]:
    """Events of ``process`` making some literal of the clause true.

    Memoized per (clause, process) on the computation's causality index.
    """
    return list(CausalityIndex.of(computation).clause_true_events_on(cl, process))


def clause_true_events(computation: Computation, cl: Clause) -> List[EventId]:
    """All events (across the clause's group) making the clause true.

    Memoized per clause on the computation's causality index.
    """
    return list(CausalityIndex.of(computation).clause_true_events(cl))


def _groups(predicate: CNFPredicate) -> List[List[int]]:
    predicate.require_singular()
    return [sorted(cl.processes()) for cl in predicate.clauses]


def _choose_special_variant(
    computation: Computation, groups: Sequence[Sequence[int]]
) -> Optional[str]:
    """Which CPDSC variant applies, or None.  Memoized per group structure."""
    index = CausalityIndex.of(computation)
    if index.is_receive_ordered(groups):
        return "receive-ordered"
    if index.is_send_ordered(groups):
        return "send-ordered"
    return None


def _detect_special_given(
    computation: Computation,
    predicate: CNFPredicate,
    groups: Sequence[Sequence[int]],
    variant: str,
) -> DetectionResult:
    """Run the already-chosen CPDSC variant.

    The caller has established applicability; clause-true events are only
    materialized here, after the variant decision, so an inapplicable
    predicate never pays for them.
    """
    with span("engine.cpdsc", groups=len(groups)) as sp:
        index = CausalityIndex.of(computation)
        trues = [
            list(index.clause_true_events(cl)) for cl in predicate.clauses
        ]
        if variant == "receive-ordered":
            selection = detect_receive_ordered(computation, groups, trues)
        else:
            selection = detect_send_ordered(computation, groups, trues)
        stats = StatCounters("engine.cpdsc")
        stats.set("variant", variant)
        stats.inc("scans")
        sp.set(variant=variant, holds=selection is not None)
        index.maybe_flush_metrics()
        if selection is None:
            return DetectionResult(
                holds=False, algorithm="cpdsc", stats=stats.as_dict()
            )
        return DetectionResult(
            holds=True,
            witness=selection_witness(computation, predicate, selection),
            algorithm="cpdsc",
            stats=stats.as_dict(),
        )


def detect_special_case(
    computation: Computation, predicate: CNFPredicate
) -> DetectionResult:
    """Polynomial detection for receive-ordered / send-ordered computations.

    The orderedness check runs once, up front (and is memoized on the
    computation's causality index, so an ``auto`` dispatch that already
    classified the computation never re-derives the verdict).

    Raises:
        UnsupportedPredicateError: If the computation is neither
            receive-ordered nor send-ordered with respect to the clause
            groups — use one of the general engines then.
    """
    groups = _groups(predicate)
    variant = _choose_special_variant(computation, groups)
    if variant is None:
        raise UnsupportedPredicateError(
            "computation is neither receive-ordered nor send-ordered "
            "with respect to the clause groups; use "
            "detect_by_chain_choice"
        )
    return _detect_special_given(computation, predicate, groups, variant)


def process_choice_table(
    computation: Computation, predicate: CNFPredicate
) -> List[List[List[EventId]]]:
    """Per clause, the clause-true events of each process of its group."""
    index = CausalityIndex.of(computation)
    return [
        [list(index.clause_true_events_on(cl, p)) for p in group]
        for cl, group in zip(predicate.clauses, _groups(predicate))
    ]


def chain_choice_table(
    computation: Computation, predicate: CNFPredicate
) -> List[List[List[EventId]]]:
    """Per clause, a minimum chain cover of its true events."""
    _groups(predicate)
    index = CausalityIndex.of(computation)
    return [
        [list(chain) for chain in index.chain_cover(cl)]
        for cl in predicate.clauses
    ]


def detect_by_process_choice(
    computation: Computation, predicate: CNFPredicate
) -> DetectionResult:
    """Try every one-process-per-group choice; CPDHB on each (Section 3.3a)."""
    return _detect_by_combinations(
        computation,
        predicate,
        process_choice_table(computation, predicate),
        algorithm="process-choice",
    )


def detect_by_chain_choice(
    computation: Computation, predicate: CNFPredicate
) -> DetectionResult:
    """Try every one-chain-per-group choice; CPDHB on each (Section 3.3b).

    Uses a minimum chain cover of each group's true events (memoized on the
    causality index), so the number of CPDHB invocations is ``prod c_j``
    where ``c_j`` is the width (largest antichain) of group j's true events
    — never more than the process-choice engine, exponentially fewer when
    groups communicate internally.
    """
    return _detect_by_combinations(
        computation,
        predicate,
        chain_choice_table(computation, predicate),
        algorithm="chain-choice",
    )


def detect_cnf_by_literal_choice(
    computation: Computation, predicate: CNFPredicate
) -> DetectionResult:
    """Try every one-literal-per-clause choice; CPDHB on each.

    The Stoller–Schneider decomposition.  Works for any CNF, non-singular
    ones included (see the module docstring for why literals sharing a
    process need no merging).
    """
    index = CausalityIndex.of(computation)
    per_clause_chains = [
        [index.literal_true_events(lit) for lit in cl.literals]
        for cl in predicate.clauses
    ]
    return _detect_by_combinations(
        computation,
        predicate,
        per_clause_chains,
        algorithm="stoller-schneider",
    )


def _pool_workers(total: int, chunk: int) -> int:
    """Workers for the ranks after a sweep's first ``chunk``; 1 = serial.

    A pool needs :data:`POOL_MIN_COMBINATIONS` ranks, two usable cores and
    no other live thread: ``fork`` copies only the calling thread, so a
    lock another thread holds would stay held in the children.  A sweep
    refused for live threads counts in ``perf.pool.fallbacks``.
    """
    if total < POOL_MIN_COMBINATIONS:
        return 1
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        return 1
    if threading.active_count() > 1:
        if STATE.enabled:
            registry().counter("perf.pool.fallbacks").inc()
        return 1
    return min(cores, math.ceil((total - chunk) / chunk))


def _detect_by_combinations(
    computation: Computation,
    predicate: CNFPredicate,
    per_group_chains: Sequence[Sequence[Sequence[EventId]]],
    algorithm: str,
) -> DetectionResult:
    """Shared driver: CPDHB over every combination of one chain per group.

    Verdict, witness and counters are the serial sweep's whether or not
    a pool takes over after the first chunk, and the serial loop goes on
    when no pool can be created.
    """
    total = math.prod(len(chains) for chains in per_group_chains)
    with span(
        f"engine.{algorithm}",
        groups=len(per_group_chains),
        combinations=total,
    ) as sp:
        index = CausalityIndex.of(computation)
        stats = StatCounters(f"engine.{algorithm}")
        stats.set("combinations", total)
        stats.set("workers", 1)
        stats.inc("invocations", 0)
        stats.inc("advances", 0)

        def _finish(
            selection: Optional[Sequence[EventId]],
        ) -> DetectionResult:
            sp.set(holds=selection is not None)
            index.maybe_flush_metrics()
            if selection is None:
                return DetectionResult(
                    holds=False, algorithm=algorithm, stats=stats.as_dict()
                )
            return DetectionResult(
                holds=True,
                witness=selection_witness(computation, predicate, selection),
                algorithm=algorithm,
                stats=stats.as_dict(),
            )

        # The pool's workers use the same scanner and chunks: identical
        # verdict, witness, invocations and advances.
        scanner = RankScanner(computation, per_group_chains)
        trk = tracker("detect.combinations", total=total)
        for start, stop in rank_chunks(total):
            _, selection, invocations, advances = scanner.scan(start, stop)
            stats.inc("invocations", invocations)
            stats.inc("advances", advances)
            trk.step(invocations)
            if selection is not None:
                return _finish(selection)
            if start == 0:
                workers = _pool_workers(total, stop)
                if workers > 1:
                    from repro.perf.parallel import run_combination_search

                    outcome = run_combination_search(
                        computation, per_group_chains, workers, stop
                    )
                    if outcome is not None:
                        stats.set("workers", workers)
                        stats.inc("invocations", outcome.invocations)
                        stats.inc("advances", outcome.advances)
                        return _finish(outcome.selection)
        trk.finish()
        return _finish(None)


def detect_singular(
    computation: Computation,
    predicate: CNFPredicate,
    strategy: str = "auto",
) -> DetectionResult:
    """Facade for singular k-CNF ``possibly`` detection.

    Strategies: ``"auto"`` (polynomial special case when applicable, else
    chain-choice), ``"special"``, ``"process-choice"``, ``"chain-choice"``,
    ``"enumerate"`` (Cooper–Marzullo baseline).
    """
    if strategy == "auto":
        groups = _groups(predicate)
        with span("dispatch.singular", strategy="auto", groups=len(groups)):
            # Classify once; the chosen variant is handed to the special
            # engine so it never re-runs the orderedness scan.
            variant = _choose_special_variant(computation, groups)
            if variant is not None:
                return _detect_special_given(
                    computation, predicate, groups, variant
                )
            return detect_by_chain_choice(computation, predicate)
    if strategy == "special":
        return detect_special_case(computation, predicate)
    if strategy == "process-choice":
        return detect_by_process_choice(computation, predicate)
    if strategy == "chain-choice":
        return detect_by_chain_choice(computation, predicate)
    if strategy == "enumerate":
        return possibly_enumerate(computation, predicate)
    raise ValueError(f"unknown strategy {strategy!r}")
