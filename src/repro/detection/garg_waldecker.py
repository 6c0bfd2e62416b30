"""Garg–Waldecker conjunctive predicate detection (CPDHB).

``possibly`` of a conjunctive predicate — a conjunction of local predicates,
one per participating process — is decidable in polynomial time by an
elimination scan (Garg & Waldecker, IEEE TPDS 1994; the tractable cell of
the paper's Figure 1).  The scan keeps one candidate *true event* per
process; whenever two candidates ``e, f`` are inconsistent, one of them
provably belongs to no solution and is advanced past:

    ``succ(e) -> f``  ⟹  ``e`` is inconsistent with ``f`` and with every
    later true event of ``f``'s sequence (they are causally after ``f``),
    so ``e`` can be eliminated.

We implement the scan over *causal chains* rather than processes: a chain
is any sequence of events totally ordered by happened-before.  With one
chain per process (its true events in local order) this is classical
CPDHB; with arbitrary chains it is the engine of the paper's Section 3.3
chain-cover algorithm for singular k-CNF predicates — the elimination
argument is verbatim, since later chain events are causally after the
current one.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

from repro.computation import Computation, Cut, least_consistent_cut
from repro.detection.result import DetectionResult
from repro.events import EventId
from repro.obs import StatCounters, span
from repro.obs.progress import tracker
from repro.perf.causality import CausalityIndex
from repro.predicates.base import GlobalPredicate
from repro.predicates.conjunctive import ConjunctivePredicate

__all__ = [
    "find_consistent_selection",
    "detect_conjunctive",
    "selection_witness",
    "SelectionScan",
]


class SelectionScan:
    """Elimination scan finding pairwise-consistent events, one per chain.

    Exposes the number of eliminations performed (``advances``) for the
    benchmarks; the scan performs at most ``sum of chain lengths``
    eliminations, each costing O(number of chains) consistency checks.

    This is the one serial conjunctive kernel: CPDHB, the CPDSC
    meta-process scan and the per-rank combination sweeps (Section 3.3
    and the Stoller–Schneider decomposition) all run it.  Causality is
    read straight from the raw clock tuples of the computation's
    memoized :class:`~repro.perf.causality.CausalityIndex`.
    """

    def __init__(
        self,
        computation: Computation,
        chains: Sequence[Sequence[EventId]],
    ):
        self._index = CausalityIndex.of(computation)
        self._chains: List[List[EventId]] = [list(c) for c in chains]
        self.advances = 0
        self.comparisons = 0

    def run(self) -> Optional[List[EventId]]:
        """Return the least pairwise-consistent selection, or None.

        For a non-initial event ``e' = (p, i)`` with ``i >= 1``,
        ``leq(e', f)`` reduces to ``f`` being non-initial with
        ``clk(f)[p] > i`` (the component counts the events of ``p`` in
        ``f``'s causal past, including the initial one, so same-process
        equality is covered too).  Both elimination tests only ever apply
        ``leq`` to local successors, which are non-initial by construction.
        """
        chains = self._chains
        m = len(chains)
        if m == 0:
            return []
        if any(not chain for chain in chains):
            return None
        clk = self._index._clk
        lengths = self._index._lengths
        cursor = [0] * m
        # Chains whose candidate changed and must be re-checked against all.
        pending: deque[int] = deque(range(m))
        queued = [True] * m
        advances = 0
        comparisons = 0
        trk = tracker("detect.scan", check_every=512)
        while pending:
            trk.step()
            i = pending.popleft()
            queued[i] = False
            ep, ei = chains[i][cursor[i]]
            ei1 = ei + 1
            e_last = ei1 >= lengths[ep]
            for j in range(m):
                if j == i:
                    continue
                fp, fi = chains[j][cursor[j]]
                comparisons += 1
                if not e_last and fi and clk[fp][fi][ep] > ei1:
                    # succ(e) -> f: e pairs with nothing at or after f.
                    advances += 1
                    cursor[i] += 1
                    if cursor[i] >= len(chains[i]):
                        self.advances = advances
                        self.comparisons = comparisons
                        return None
                    if not queued[i]:
                        pending.append(i)
                        queued[i] = True
                    break
                fi1 = fi + 1
                if fi1 < lengths[fp] and ei and clk[ep][ei][fp] > fi1:
                    # succ(f) -> e: eliminate f symmetrically.
                    advances += 1
                    cursor[j] += 1
                    if cursor[j] >= len(chains[j]):
                        self.advances = advances
                        self.comparisons = comparisons
                        return None
                    if not queued[j]:
                        pending.append(j)
                        queued[j] = True
        self.advances = advances
        self.comparisons = comparisons
        return [chains[i][cursor[i]] for i in range(m)]


def find_consistent_selection(
    computation: Computation, chains: Sequence[Sequence[EventId]]
) -> Optional[List[EventId]]:
    """Pairwise-consistent selection of one event per causal chain, or None.

    Each chain must be sorted by happened-before (chains produced by
    :func:`repro.computation.minimum_chain_cover` and per-process true-event
    lists both are).
    """
    return SelectionScan(computation, chains).run()


def selection_witness(
    computation: Computation,
    predicate: GlobalPredicate,
    selection: Sequence[EventId],
) -> Cut:
    """The witness cut of a pairwise-consistent selection, checked.

    Every engine that ends in a selection turns it into its witness here:
    the least consistent cut through the selected events, which must
    exist and satisfy ``predicate``.  A failure means the engine is
    wrong, so both checks raise ``AssertionError`` explicitly and
    survive ``python -O``.
    """
    witness = least_consistent_cut(computation, selection)
    if witness is None:
        raise AssertionError(
            f"selection {list(selection)} admits no consistent cut"
        )
    if not predicate.evaluate(witness):
        raise AssertionError(
            f"witness {witness.frontier} does not satisfy "
            f"{predicate.description()}"
        )
    return witness


def detect_conjunctive(
    computation: Computation, predicate: ConjunctivePredicate
) -> DetectionResult:
    """Decide ``possibly`` of a conjunctive predicate by CPDHB.

    Returns a witness cut passing through one true event per conjunct when
    the predicate possibly holds.
    """
    with span("engine.cpdhb", conjuncts=len(predicate.conjuncts)) as sp:
        index = CausalityIndex.of(computation)
        chains = [
            index.local_true_events(conjunct)
            for conjunct in predicate.conjuncts
        ]
        scan = SelectionScan(computation, chains)
        selection = scan.run()
        index.maybe_flush_metrics()
        stats = StatCounters("engine.cpdhb")
        stats.set("chains", len(chains))
        stats.inc("advances", scan.advances)
        stats.inc("comparisons", scan.comparisons)
        sp.set(advances=scan.advances, holds=selection is not None)
        if selection is None:
            return DetectionResult(
                holds=False, algorithm="cpdhb", stats=stats.as_dict()
            )
        return DetectionResult(
            holds=True,
            witness=selection_witness(computation, predicate, selection),
            algorithm="cpdhb",
            stats=stats.as_dict(),
        )
