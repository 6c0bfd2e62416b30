"""Per-computation memoized causality index (the detection hot path).

Every engine in :mod:`repro.detection` ultimately spends its time on the
same two questions: *does this event causally precede that one*, and
*which events make this literal or clause true*.  The paper's Section 3.3
enumeration engines ask them once per CPDHB scan — and run up to
``prod c_j`` scans over the **same immutable computation**, re-deriving
identical answers on every scan.

:class:`CausalityIndex` hoists those answers into per-computation
structures built once and shared by every scan (and, since the index is
stored on the computation, by every query against the same computation):

* the computation's clock table itself (``_clk[p][i]`` is the component
  tuple of event ``(p, i)``; the same object, not a copy), giving a
  ``leq`` fast path with no per-call id validation;
* the table's consistency closure (:meth:`consistency_closure`), shared
  by the slicer's rounding and :meth:`closure_at_least`;
* memoized per-literal true-event lists (:meth:`literal_true_events`),
  the one source of the true events CPDHB, the slicer, the
  literal-choice sweep and the clause memos scan;
* memoized per-clause true-event lists and minimum chain covers, keyed
  by the clause's literals rather than the clause object, so the
  process-choice/chain-choice engines and the auto dispatcher stop
  recomputing them — also for a re-parsed predicate;
* memoized receive-/send-orderedness verdicts per group structure;
* consistent-successor frontier expansion for lattice walks
  (:meth:`successor_frontiers`) over a lazily built per-event
  receive-delta table, letting BFS engines track plain frontier tuples
  instead of constructing and re-hashing :class:`Cut` objects per edge;
* the clock table as one dense numpy array (:attr:`matrix`), built on
  first use; no engine reads it;
* the classifier's validation sample (:attr:`validation_sample`), which
  depends only on the computation's shape and is drawn once by
  :func:`repro.analysis.classify.validate.sample_cuts`.

Each index is stored on the computation it describes and refers back to
it only weakly, and it keeps no ``Cut`` (a cut refers to its
computation) and no predicate, only int tuples and the literal keys
naming them, so dropping the last reference to a computation frees the
computation and its index by reference counting alone — also after a
lattice walk.
All cache hit/miss tallies are kept as plain integers (always cheap) and
mirrored into the metrics registry as ``perf.*`` counters by
:meth:`maybe_flush_metrics` when observability is enabled.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.computation.chains import minimum_chain_cover
from repro.computation.computation import Computation
from repro.events import EventId
from repro.obs.config import STATE
from repro.obs.metrics import registry
from repro.predicates.local import Literal, LocalPredicate, true_events

__all__ = ["CausalityIndex"]

#: Chains of a cover, as immutable event-id tuples.
ChainCover = Tuple[Tuple[EventId, ...], ...]
Frontier = Tuple[int, ...]
#: A literal's ``(process, variable, negated)`` key.
LiteralKey = Tuple[int, str, bool]
#: A clause's key: the set of its literals' keys.
ClauseKey = FrozenSet[LiteralKey]

#: Attribute under which a computation holds its index.
_INDEX_ATTR = "_causality_index"


class CausalityIndex:
    """Flat, memoized causality structures for one immutable computation.

    Obtain through :meth:`of` (cached per computation) rather than the
    constructor, so every query against a computation shares its caches.
    """

    __slots__ = (
        "_computation",
        "num_processes",
        "_lengths",
        "_clk",
        "_literal_true",
        "_true_on",
        "_true_all",
        "_covers",
        "_orderedness",
        "_deltas",
        "_matrix",
        "validation_sample",
        "counters",
        "_flushed",
        "__weakref__",
    )

    #: Tally of `of()` lookups that found / had to build the index.
    index_hits: int = 0
    index_misses: int = 0

    def __init__(self, computation: Computation):
        self._computation = weakref.ref(computation)
        # The computation's clock table, shared: _clk[p][i] is the
        # component tuple of event (p, i).
        self._clk: List[List[Tuple[int, ...]]] = computation._clk
        self.num_processes = computation.num_processes
        self._lengths: List[int] = [len(rows) for rows in self._clk]
        self._literal_true: Dict[LiteralKey, Tuple[EventId, ...]] = {}
        self._true_on: Dict[Tuple[ClauseKey, int], Tuple[EventId, ...]] = {}
        self._true_all: Dict[ClauseKey, Tuple[EventId, ...]] = {}
        self._covers: Dict[ClauseKey, ChainCover] = {}
        self._orderedness: Dict[object, bool] = {}
        self._deltas: Optional[List[List[Tuple[Tuple[int, int], ...]]]] = None
        self._matrix = None
        #: Frontiers of the classifier's validation sample, stored by
        #: :func:`repro.analysis.classify.validate.sample_cuts` on first use.
        self.validation_sample: Optional[Tuple[Frontier, ...]] = None
        self.counters: Dict[str, int] = {
            "literal_cache.hits": 0,
            "literal_cache.misses": 0,
            "clause_cache.hits": 0,
            "clause_cache.misses": 0,
            "chain_cover.hits": 0,
            "chain_cover.misses": 0,
            "orderedness.hits": 0,
            "orderedness.misses": 0,
        }
        self._flushed: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, computation: Computation) -> "CausalityIndex":
        """The index of ``computation``, built on first use."""
        index = computation.__dict__.get(_INDEX_ATTR)
        if index is None:
            cls.index_misses += 1
            index = cls(computation)
            setattr(computation, _INDEX_ATTR, index)
        else:
            cls.index_hits += 1
        return index

    @property
    def computation(self) -> Computation:
        """The computation this index describes."""
        return self._computation()

    # ------------------------------------------------------------------
    # Causality fast paths
    # ------------------------------------------------------------------
    def happened_before(self, e: EventId, f: EventId) -> bool:
        """Irreflexive causal order, without per-call id validation."""
        if e == f:
            return False
        ei = e[1]
        if ei == 0:
            return f[1] != 0
        if f[1] == 0:
            return False
        return self._clk[f[0]][f[1]][e[0]] > ei

    def leq(self, e: EventId, f: EventId) -> bool:
        """Reflexive causal order (``e == f`` or ``e`` precedes ``f``)."""
        if e == f:
            return True
        ei = e[1]
        if ei == 0:
            return f[1] != 0
        if f[1] == 0:
            return False
        return self._clk[f[0]][f[1]][e[0]] > ei

    def _receive_deltas(self) -> List[List[Tuple[Tuple[int, int], ...]]]:
        """The receive-delta table, built on first use.

        ``deltas[p][i]`` holds the ``(q, v)`` pairs, ``q != p``, where the
        clock of ``(p, i)`` rises above the clock of ``(p, i - 1)`` (above
        the all-ones running clock for ``i == 1``), so it is empty except
        at receives.
        """
        if self._deltas is None:
            ones = (1,) * self.num_processes
            deltas = []
            for p, rows in enumerate(self._clk):
                per_event: List[Tuple[Tuple[int, int], ...]] = [()]
                prev = ones
                for clk in rows[1:]:
                    per_event.append(
                        tuple(
                            (q, v)
                            for q, (v, u) in enumerate(zip(clk, prev))
                            if v > u and q != p
                        )
                    )
                    prev = clk
                deltas.append(per_event)
            self._deltas = deltas
        return self._deltas

    def successor_frontiers(
        self, frontier: Tuple[int, ...]
    ) -> List[Tuple[int, ...]]:
        """Frontiers of the consistent cuts immediately above ``frontier``.

        Equal, order included, to
        ``[c.frontier for c in Cut(comp, frontier).successors()]`` for a
        consistent frontier, but works on plain tuples.  The cut already
        holds ``(p, frontier[p] - 1)`` and, being consistent, that event's
        causal past, so the next event of ``p`` is enabled iff the
        components its clock raised over its predecessor's — its receive
        delta — are covered by the frontier.
        """
        out: List[Tuple[int, ...]] = []
        lengths = self._lengths
        deltas = self._receive_deltas()
        for p, nxt in enumerate(frontier):
            if nxt >= lengths[p]:
                continue
            for q, v in deltas[p][nxt]:
                if v > frontier[q]:
                    break
            else:
                out.append(frontier[:p] + (nxt + 1,) + frontier[p + 1 :])
        return out

    # ------------------------------------------------------------------
    # Consistency closure
    # ------------------------------------------------------------------
    def consistency_closure(self, frontier: List[int]) -> List[int]:
        """Raise ``frontier`` in place to its least consistent cut.

        Joins the clocks of the frontier events into the frontier until
        nothing changes (initial events add nothing beyond their own unit
        component, so they are skipped).  Returns ``frontier``.
        """
        clk_all = self._clk
        stable = False
        while not stable:
            stable = True
            for p, c in enumerate(frontier):
                if c == 1:
                    continue
                for q, have in enumerate(clk_all[p][c - 1]):
                    if have > frontier[q]:
                        frontier[q] = have
                        stable = False
        return frontier

    def closure_at_least(
        self, base: Frontier, process: int, minimum: int
    ) -> Frontier:
        """Least consistent frontier >= base with ``f[process] >= minimum``."""
        frontier = list(base)
        frontier[process] = max(frontier[process], minimum)
        return tuple(self.consistency_closure(frontier))

    # ------------------------------------------------------------------
    # Per-literal memoization (every true-event engine)
    # ------------------------------------------------------------------
    def literal_true_events(self, lit: Literal) -> Tuple[EventId, ...]:
        """Memoized true events of a :class:`~repro.predicates.local.Literal`.

        The events of the literal's process, initial event included,
        after which its variable is truthy (falsy when negated; a missing
        variable reads ``False``), in local order — the events
        :func:`~repro.predicates.local.true_events` returns, keyed by the
        literal's ``(process, variable, negated)``.
        """
        key = lit.key
        cached = self._literal_true.get(key)
        if cached is not None:
            self.counters["literal_cache.hits"] += 1
            return cached
        self.counters["literal_cache.misses"] += 1
        p, var, negated = key
        events = self.computation.events_of(p)
        if negated:
            result = tuple(
                (p, i)
                for i, e in enumerate(events)
                if not e.values.get(var, False)
            )
        else:
            result = tuple(
                (p, i) for i, e in enumerate(events) if e.values.get(var, False)
            )
        self._literal_true[key] = result
        return result

    def local_true_events(self, pred: LocalPredicate) -> Sequence[EventId]:
        """True events of a local predicate, memoized for a plain ``Literal``.

        Any other local predicate — an opaque ``local_fn`` body, or a
        ``Literal`` subclass that may change the truth rule — is rescanned
        with :func:`~repro.predicates.local.true_events`.
        """
        if type(pred) is Literal:
            return self.literal_true_events(pred)
        return true_events(self.computation, pred)

    # ------------------------------------------------------------------
    # Per-clause memoization (singular k-CNF engines)
    # ------------------------------------------------------------------
    def clause_true_events_on(self, cl, process: int) -> Tuple[EventId, ...]:
        """Memoized events of ``process`` making some literal of ``cl`` true."""
        key = (cl.key, process)
        cached = self._true_on.get(key)
        if cached is not None:
            self.counters["clause_cache.hits"] += 1
            return cached
        self.counters["clause_cache.misses"] += 1
        lists = [
            self.literal_true_events(lit)
            for lit in cl.literals
            if lit.process == process
        ]
        if len(lists) == 1:
            result = lists[0]
        else:
            result = tuple(sorted(set().union(*lists)))
        self._true_on[key] = result
        return result

    def clause_true_events(self, cl) -> Tuple[EventId, ...]:
        """Memoized true events of the clause across its whole group."""
        cached = self._true_all.get(cl.key)
        if cached is not None:
            self.counters["clause_cache.hits"] += 1
            return cached
        self.counters["clause_cache.misses"] += 1
        result: List[EventId] = []
        for process in sorted(cl.processes()):
            result.extend(self.clause_true_events_on(cl, process))
        out = tuple(result)
        self._true_all[cl.key] = out
        return out

    def chain_cover(self, cl) -> ChainCover:
        """Memoized minimum chain cover of the clause's true events."""
        cached = self._covers.get(cl.key)
        if cached is not None:
            self.counters["chain_cover.hits"] += 1
            return cached
        self.counters["chain_cover.misses"] += 1
        trues = self.clause_true_events(cl)
        cover = tuple(
            tuple(chain)
            for chain in minimum_chain_cover(self.computation, list(trues))
        )
        self._covers[cl.key] = cover
        return cover

    # ------------------------------------------------------------------
    # Memoized structural classification (Section 3.2 dispatch)
    # ------------------------------------------------------------------
    def _totally_ordered(self, ids: Sequence[EventId]) -> bool:
        for i, e in enumerate(ids):
            for f in ids[i + 1 :]:
                if not self.leq(e, f) and not self.leq(f, e):
                    return False
        return True

    def is_receive_ordered(self, groups: Sequence[Sequence[int]]) -> bool:
        """Memoized receive-orderedness with respect to ``groups``."""
        key = ("recv", tuple(tuple(g) for g in groups))
        cached = self._orderedness.get(key)
        if cached is not None:
            self.counters["orderedness.hits"] += 1
            return cached
        self.counters["orderedness.misses"] += 1
        result = all(
            self._totally_ordered(
                [
                    eid
                    for p in group
                    for eid in self.computation.receive_events(p)
                ]
            )
            for group in groups
        )
        self._orderedness[key] = result
        return result

    def is_send_ordered(self, groups: Sequence[Sequence[int]]) -> bool:
        """Memoized send-orderedness with respect to ``groups``."""
        key = ("send", tuple(tuple(g) for g in groups))
        cached = self._orderedness.get(key)
        if cached is not None:
            self.counters["orderedness.hits"] += 1
            return cached
        self.counters["orderedness.misses"] += 1
        result = all(
            self._totally_ordered(
                [
                    eid
                    for p in group
                    for eid in self.computation.send_events(p)
                ]
            )
            for group in groups
        )
        self._orderedness[key] = result
        return result

    # ------------------------------------------------------------------
    # Dense clock matrix
    # ------------------------------------------------------------------
    @property
    def matrix(self):
        """The clock table as one dense ``(total_events, n)`` ``int64``
        numpy array, rows in process-major order.

        Built lazily, once per index; this is the only place the package
        imports numpy, and only the benchmark harness reads it.  No engine
        does: every engine reads the clock table itself.
        """
        if self._matrix is None:
            import numpy as np

            self._matrix = np.array(
                [row for rows in self._clk for row in rows], dtype=np.int64
            )
        return self._matrix

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def maybe_flush_metrics(self) -> None:
        """Mirror tally deltas into ``perf.*`` registry counters.

        Engines call this once per query; with observability disabled it
        is a single attribute check.  Deltas (not totals) are pushed so
        repeated flushes never double-count.
        """
        if not STATE.enabled:
            return
        reg = registry()
        for key, value in self.counters.items():
            delta = value - self._flushed.get(key, 0)
            if delta:
                reg.counter(f"perf.{key}").inc(delta)
                self._flushed[key] = value
        cls = type(self)
        for key, value in (
            ("index.hits", cls.index_hits),
            ("index.misses", cls.index_misses),
        ):
            # Class-wide tallies: flush the global delta through gauges to
            # avoid cross-index double counting of a shared total.
            reg.gauge(f"perf.{key}").set(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CausalityIndex(processes={self.num_processes}, "
            f"clauses_cached={len(self._true_all)}, "
            f"covers_cached={len(self._covers)})"
        )
