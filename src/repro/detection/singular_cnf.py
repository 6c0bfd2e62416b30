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

The three engines share one driver, :func:`_detect_by_combinations`:
CPDHB over the combinations of one chain per group.  The literal-choice
engine makes each clause a group and each literal a chain (its true
events), so ``possibly(CNF)`` is the OR over the ``prod |C_j|`` literal
choices: ⇐ is monotone weakening, and ⇒ holds because a witness cut
satisfies some literal of every clause.  A non-singular CNF can put two
chosen literals on one process, and the scan needs no merging for that:

* A selection holding ``(p, i)`` and ``(p, j)`` with ``i < j`` always
  eliminates ``(p, i)``, because ``clk(p, j)[p] = j + 1 > i + 1`` — so
  only a selection where one event serves both literals is consistent,
  and such an event is exactly one where both literals hold.
* A contradictory pair (``x`` and ``not x`` on one process) has no common
  event, so its combination fails in the scan.

The driver does not score combinations one by one: Theorem 1 makes the
problem NP-complete, and :func:`search_combinations` decides it by
depth-first search over the groups in ``itertools.product`` order, and
returns the first combination with a consistent selection together with
that combination's *least* consistent selection.  Two prunings keep that
answer the one an exhaustive walk of the ranks would give:

* *Prefix extension.*  The search keeps the least consistent selection
  of the chosen prefix and extends it with the next group's chain by
  resuming the elimination from the prefix's cursors.  Every consistent
  selection of the longer system restricted to the prefix is consistent
  for the prefix, so the prefix's least fixpoint is dominated by the
  full system's, and the resumed scan, whose eliminations are sound,
  stops exactly at the full system's least fixpoint.  A prefix with no
  consistent selection has no consistent extension: its subtree holds
  no success.
* *Forward checking* (Haralick & Elliott).  A chain that a two-chain
  scan finds incompatible with a chosen chain belongs to no consistent
  selection containing that choice, so dropping it from a later group's
  domain removes only failing combinations, and a node with an emptied
  domain has no success below it.

The leaves are therefore reached in product order with only failures
skipped, the first success is the lowest-ranked one, and verdict and
witness equal those of a rank-by-rank walk
(:func:`repro.testkit.oracles.rank_walk` is that referee).  The worst
case stays exponential: chains compatible in pairs but not three at a
time defeat forward checking.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.computation import Computation
from repro.detection.cooper_marzullo import possibly_enumerate
from repro.detection.cpdsc import (
    detect_receive_ordered,
    detect_send_ordered,
)
from repro.detection.garg_waldecker import eliminate, selection_witness
from repro.detection.result import DetectionResult
from repro.events import EventId
from repro.obs import StatCounters, span
from repro.obs.progress import NOOP_TRACKER, tracker
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
    "literal_choice_table",
    "process_choice_table",
    "search_combinations",
    "SearchOutcome",
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


def literal_choice_table(
    computation: Computation, predicate: CNFPredicate
) -> List[List[Sequence[EventId]]]:
    """Per clause, the memoized true events of each literal (any CNF)."""
    index = CausalityIndex.of(computation)
    return [
        [index.literal_true_events(lit) for lit in cl.literals]
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
    return _detect_by_combinations(
        computation,
        predicate,
        literal_choice_table(computation, predicate),
        algorithm="stoller-schneider",
    )


class SearchOutcome(NamedTuple):
    """What :func:`search_combinations` found, and the work it did."""

    selection: Optional[List[EventId]]  #: least consistent selection, or None
    rank: Optional[int]  #: its combination's rank in product order, or None
    nodes: int  #: prefix extensions, one resumed elimination each
    advances: int  #: cursor moves, pair scans included
    pair_checks: int  #: two-chain compatibility scans (memo misses)


def search_combinations(
    computation: Computation,
    per_group_chains: Sequence[Sequence[Sequence[EventId]]],
    trk=NOOP_TRACKER,
) -> SearchOutcome:
    """First combination, in ``itertools.product`` order, with a
    consistent selection, by depth-first search with forward checking.

    Group ``k``'s chain extends the prefix's least consistent selection
    (:func:`~repro.detection.garg_waldecker.eliminate` resumed from the
    prefix's cursors), and a prefix with none skips its subtree.  Each
    choice then drops from every later group's domain the chains that a
    memoized two-chain scan finds incompatible with it, and a node whose
    later domain empties fails.  Both prunings cut only failing
    combinations, so the first leaf reached is the lowest-ranked
    success (see the module docstring).  ``trk`` counts the ranks
    settled so far.
    """
    index = CausalityIndex.of(computation)
    clk, lengths = index._clk, index._lengths
    m = len(per_group_chains)
    if m == 0:
        return SearchOutcome([], 0, 0, 0, 0)
    sizes = [len(chains) for chains in per_group_chains]
    # suffix[k]: the ranks under one choice at depth k.
    suffix = [1] * m
    for k in range(m - 2, -1, -1):
        suffix[k] = suffix[k + 1] * sizes[k + 1]
    # Pair verdicts are memoized per pair of distinct chains, whichever
    # groups hold them: a literal's chain recurs in every clause naming it.
    chain_ids: Dict[Sequence[EventId], int] = {}
    ids = [
        [chain_ids.setdefault(tuple(chain), len(chain_ids)) for chain in chains]
        for chains in per_group_chains
    ]
    width = len(chain_ids)
    nodes = advances = pair_checks = settled = 0
    # Per depth k: the domains of groups k..m-1, the next domain position,
    # the prefix's cursors and the rank of the prefix's choices.
    domains = [[[c for c, chain in enumerate(chains) if chain]
                 for chains in per_group_chains]]
    if not all(domains[0]):
        trk.step(suffix[0] * sizes[0])
        return SearchOutcome(None, None, 0, 0, 0)
    positions = [0]
    cursors: List[List[int]] = [[]]
    prefix_ranks = [0]
    chosen: List[Sequence[EventId]] = []
    compatible: Dict[int, bool] = {}
    while positions:
        k = len(positions) - 1
        doms = domains[k]
        pos = positions[k]
        if pos == len(doms[0]):
            if k:
                # Depth k - 1's choice has failed: its ranks are settled.
                done = (prefix_ranks[k] + 1) * suffix[k - 1]
                trk.step(done - settled)
                settled = done
                chosen.pop()
            positions.pop()
            domains.pop()
            cursors.pop()
            prefix_ranks.pop()
            continue
        positions[k] = pos + 1
        c = doms[0][pos]
        chain = per_group_chains[k][c]
        chosen.append(chain)
        cursor = cursors[k] + [0]
        nodes += 1
        consistent, moved, _ = eliminate(clk, lengths, chosen, cursor, (k,))
        advances += moved
        if consistent and k == m - 1:
            return SearchOutcome(
                [chosen[i][cursor[i]] for i in range(m)],
                prefix_ranks[k] * sizes[k] + c,
                nodes,
                advances,
                pair_checks,
            )
        later: List[List[int]] = []
        if consistent:
            a = ids[k][c]
            for h in range(k + 1, m):
                kept = []
                for d in doms[h - k]:
                    b = ids[h][d]
                    key = a * width + b if a < b else b * width + a
                    ok = compatible.get(key)
                    if ok is None:
                        pair_checks += 1
                        ok, moved, _ = eliminate(
                            clk,
                            lengths,
                            (chain, per_group_chains[h][d]),
                            [0, 0],
                            (0,),
                        )
                        advances += moved
                        compatible[key] = ok
                    if ok:
                        kept.append(d)
                if not kept:
                    consistent = False
                    break
                later.append(kept)
        if consistent:
            positions.append(0)
            domains.append(later)
            cursors.append(cursor)
            prefix_ranks.append(prefix_ranks[k] * sizes[k] + c)
            continue
        chosen.pop()
        done = (prefix_ranks[k] * sizes[k] + c + 1) * suffix[k]
        trk.step(done - settled)
        settled = done
    trk.step(suffix[0] * sizes[0] - settled)
    return SearchOutcome(None, None, nodes, advances, pair_checks)


def _detect_by_combinations(
    computation: Computation,
    predicate: CNFPredicate,
    per_group_chains: Sequence[Sequence[Sequence[EventId]]],
    algorithm: str,
) -> DetectionResult:
    """Shared driver: CPDHB over the combinations of one chain per group,
    decided by :func:`search_combinations`."""
    total = math.prod(len(chains) for chains in per_group_chains)
    with span(
        f"engine.{algorithm}",
        groups=len(per_group_chains),
        combinations=total,
    ) as sp:
        index = CausalityIndex.of(computation)
        trk = tracker("detect.combinations", total=total)
        outcome = search_combinations(computation, per_group_chains, trk)
        stats = StatCounters(f"engine.{algorithm}")
        stats.set("combinations", total)
        stats.inc("invocations", outcome.nodes)
        stats.inc("advances", outcome.advances)
        stats.inc("pair_checks", outcome.pair_checks)
        selection = outcome.selection
        sp.set(nodes=outcome.nodes, holds=selection is not None)
        index.maybe_flush_metrics()
        if selection is None:
            trk.finish()
            return DetectionResult(
                holds=False, algorithm=algorithm, stats=stats.as_dict()
            )
        return DetectionResult(
            holds=True,
            witness=selection_witness(computation, predicate, selection),
            algorithm=algorithm,
            stats=stats.as_dict(),
        )


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
