"""Chain covers of event sets (substrate S4).

Section 3.3 of the paper proposes covering the true events of each clause
group with *chains* (sets of events totally ordered by happened-before) and
enumerating one chain per group instead of one process per group.  The
fewer chains needed, the larger the exponential reduction; the minimum
number of chains covering a set equals, by Dilworth's theorem, the size of
its largest antichain, and is computed exactly by Fulkerson's reduction to
maximum bipartite matching.

This module implements:

* :func:`minimum_chain_cover` — exact minimum chain partition of a set of
  events of a computation, via Hopcroft–Karp matching (implemented here,
  no external dependency);
* :func:`greedy_chain_cover` — the cheap per-process cover (each process's
  true events are trivially a chain), used as the baseline the paper's
  subset-enumeration algorithm corresponds to;
* :class:`HopcroftKarp` — the matching engine, exposed because the tests
  cross-check it against a reference implementation.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.computation.computation import Computation
from repro.computation.errors import UnknownEventError
from repro.events import EventId

__all__ = [
    "HopcroftKarp",
    "minimum_chain_cover",
    "greedy_chain_cover",
    "successor_lists",
]

_INF = float("inf")


class HopcroftKarp:
    """Maximum matching in a bipartite graph in O(E * sqrt(V)).

    Left vertices are ``0..n_left-1``; ``adjacency[u]`` lists the right
    vertices (``0..n_right-1``) adjacent to left vertex ``u``.
    """

    def __init__(self, n_left: int, n_right: int, adjacency: Sequence[Sequence[int]]):
        if len(adjacency) != n_left:
            raise ValueError("adjacency must have one entry per left vertex")
        for u, nbrs in enumerate(adjacency):
            for v in nbrs:
                if not 0 <= v < n_right:
                    raise ValueError(f"edge ({u}, {v}) out of range")
        self._n_left = n_left
        self._n_right = n_right
        self._adj = [list(nbrs) for nbrs in adjacency]
        #: match_left[u] = matched right vertex or -1; analogous match_right.
        self.match_left: List[int] = [-1] * n_left
        self.match_right: List[int] = [-1] * n_right
        self._dist: List[float] = [0.0] * n_left

    def solve(self) -> int:
        """Compute a maximum matching; returns its size."""
        matching = 0
        while self._bfs():
            for u in range(self._n_left):
                if self.match_left[u] == -1 and self._dfs(u):
                    matching += 1
        return matching

    def _bfs(self) -> bool:
        queue: deque[int] = deque()
        for u in range(self._n_left):
            if self.match_left[u] == -1:
                self._dist[u] = 0.0
                queue.append(u)
            else:
                self._dist[u] = _INF
        found_augmenting = False
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                w = self.match_right[v]
                if w == -1:
                    found_augmenting = True
                elif self._dist[w] == _INF:
                    self._dist[w] = self._dist[u] + 1
                    queue.append(w)
        return found_augmenting

    def _dfs(self, u: int) -> bool:
        for v in self._adj[u]:
            w = self.match_right[v]
            if w == -1 or (self._dist[w] == self._dist[u] + 1 and self._dfs(w)):
                self.match_left[u] = v
                self.match_right[v] = u
                return True
        self._dist[u] = _INF
        return False


def successor_lists(
    computation: Computation, events: Sequence[EventId]
) -> List[List[int]]:
    """Fulkerson's graph: ``adjacency[i]`` lists, in increasing order, the
    positions ``j`` of the events with ``events[i]`` happened-before
    ``events[j]``.

    Read from the raw clock rows: an initial event precedes every
    non-initial one, and ``(p, i)`` with ``i >= 1`` precedes ``(q, j)``
    with ``j >= 1`` iff ``clk(q, j)[p] > i``.  That component never
    decreases along process ``q``, so ``events[i]``'s successors on ``q``
    are a suffix of ``q``'s non-initial events, found by binary search.

    Raises:
        UnknownEventError: If an event is not in the computation.
    """
    for eid in events:
        if not computation.has_event(eid):
            raise UnknownEventError(eid)
    clk = computation._clk
    rows: Dict[int, List[Tuple[int, int]]] = {}
    for pos, (q, j) in enumerate(events):
        if j:
            rows.setdefault(q, []).append((j, pos))
    processes: List[Tuple[int, List[int], List[int]]] = []
    for q in sorted(rows):
        ordered = sorted(rows[q])
        processes.append(
            (q, [j for j, _ in ordered], [pos for _, pos in ordered])
        )
    # columns[(q, p)]: clk(q, j)[p] over q's non-initial events, by j.
    columns: Dict[Tuple[int, int], List[int]] = {}
    adjacency: List[List[int]] = []
    for i, (p, ei) in enumerate(events):
        successors: List[int] = []
        for q, indices, positions in processes:
            if ei:
                column = columns.get((q, p))
                if column is None:
                    column = columns[(q, p)] = [
                        clk[q][j][p] for j in indices
                    ]
                successors.extend(positions[bisect_right(column, ei):])
            else:
                successors.extend(positions)
        successors.sort()
        if ei:
            # clk(p, ei)[p] = ei + 1: the event itself passed the search.
            successors.remove(i)
        adjacency.append(successors)
    return adjacency


def minimum_chain_cover(
    computation: Computation, event_ids: Iterable[EventId]
) -> List[List[EventId]]:
    """Partition ``event_ids`` into the minimum number of causal chains.

    Each returned chain is sorted by happened-before (which is a total order
    within a chain).  Uses Fulkerson's construction: build the bipartite
    graph with an edge (u, v) whenever ``u`` happened-before ``v``
    (:func:`successor_lists`); a maximum matching of size m yields a
    partition into ``len(events) - m`` chains by following matched
    successor pointers.

    Raises:
        UnknownEventError: If an event is not in the computation.
        AssertionError: If the chains do not cover the events — a broken
            matching.  Raised explicitly, so ``python -O`` keeps it.
    """
    events = list(dict.fromkeys(event_ids))  # dedupe, keep order
    n = len(events)
    if n == 0:
        return []
    adjacency = successor_lists(computation, events)
    matcher = HopcroftKarp(n, n, adjacency)
    matcher.solve()

    # Chain heads are events that are not the matched successor of anyone.
    is_successor = [False] * n
    for u in range(n):
        v = matcher.match_left[u]
        if v != -1:
            is_successor[v] = True
    chains: List[List[EventId]] = []
    for start in range(n):
        if is_successor[start]:
            continue
        chain = [events[start]]
        u = start
        while matcher.match_left[u] != -1:
            u = matcher.match_left[u]
            chain.append(events[u])
        chains.append(chain)
    covered = sum(len(c) for c in chains)
    if covered != n:
        raise AssertionError(
            f"chain cover holds {covered} of {n} events"
        )
    return chains


def greedy_chain_cover(
    computation: Computation, event_ids: Iterable[EventId]
) -> List[List[EventId]]:
    """Per-process chain cover: events of one process form one chain.

    This is the trivial cover underlying the paper's one-process-per-group
    enumeration; its size equals the number of distinct processes hosting
    the events, an upper bound on the minimum cover.
    """
    by_process: Dict[int, List[EventId]] = {}
    for eid in dict.fromkeys(event_ids):
        by_process.setdefault(eid[0], []).append(eid)
    chains = []
    for process in sorted(by_process):
        chain = sorted(by_process[process], key=lambda eid: eid[1])
        chains.append(chain)
    return chains
