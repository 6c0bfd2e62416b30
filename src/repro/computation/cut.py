"""Cuts and consistent cuts (global states).

A *cut* of a computation assigns to each process a prefix of its local
computation (always containing the initial event).  We represent a cut by its
*frontier vector* ``(c_1, ..., c_n)`` where ``c_i`` is the number of events of
process *i* in the cut, counting the initial event, so ``1 <= c_i <=
len(events of i)``.  The cut *passes through* event ``(i, c_i - 1)`` on each
process — exactly the paper's notion.

A cut is *consistent* iff it is downward closed under happened-before: every
event it contains has all its causal predecessors inside the cut.  With
vector clocks this is an O(n^2) check (n frontier events, O(n) comparison
each).

The set of consistent cuts ordered by inclusion forms a distributive lattice;
:mod:`repro.computation.lattice` provides enumeration and reachability over
it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.computation.computation import Computation
from repro.computation.errors import InvalidCutError
from repro.events import Event, EventId

__all__ = [
    "Cut",
    "initial_cut",
    "final_cut",
    "least_consistent_cut",
]


class Cut:
    """A cut of a computation in frontier-vector form.

    Instances are immutable and hashable; they compare equal iff they denote
    the same frontier of the same computation (computation identity is by
    object, as computations are immutable).
    """

    __slots__ = ("_computation", "_frontier", "_hash")

    def __init__(self, computation: Computation, frontier: Sequence[int]):
        frontier_t = tuple(map(int, frontier))
        # One clock row per event: len(rows[p]) == len(events_of(p)).
        rows = computation._clk
        if len(frontier_t) != len(rows):
            raise InvalidCutError(
                f"frontier has {len(frontier_t)} components for "
                f"{computation.num_processes} processes"
            )
        for p, (c, clocks) in enumerate(zip(frontier_t, rows)):
            if not 1 <= c <= len(clocks):
                raise InvalidCutError(
                    f"frontier component {c} for process {p} outside "
                    f"[1, {len(clocks)}]"
                )
        self._computation = computation
        self._frontier = frontier_t
        self._hash = hash(frontier_t)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def computation(self) -> Computation:
        """The computation this cut belongs to."""
        return self._computation

    @property
    def frontier(self) -> Tuple[int, ...]:
        """The frontier vector (events per process, counting initial)."""
        return self._frontier

    def last_event_id(self, process: int) -> EventId:
        """Id of the event the cut passes through on ``process``."""
        return (process, self._frontier[process] - 1)

    def last_event(self, process: int) -> Event:
        """The event the cut passes through on ``process``."""
        return self._computation.event(self.last_event_id(process))

    def frontier_events(self) -> List[Event]:
        """The events the cut passes through, one per process."""
        return [
            self.last_event(p) for p in range(self._computation.num_processes)
        ]

    def contains(self, event_id: EventId) -> bool:
        """True iff the event is inside the cut."""
        process, index = event_id
        if not self._computation.has_event(event_id):
            raise InvalidCutError(f"event {event_id} not in computation")
        return index < self._frontier[process]

    def passes_through(self, event_id: EventId) -> bool:
        """True iff the event is the last cut event on its process."""
        process, index = event_id
        if not self._computation.has_event(event_id):
            raise InvalidCutError(f"event {event_id} not in computation")
        return index == self._frontier[process] - 1

    def size(self) -> int:
        """Number of non-initial events inside the cut."""
        return sum(c - 1 for c in self._frontier)

    # ------------------------------------------------------------------
    # Consistency and lattice structure
    # ------------------------------------------------------------------
    def is_consistent(self) -> bool:
        """True iff the cut is downward closed under happened-before."""
        frontier = self._frontier
        table = self._computation._clk
        for p, c in enumerate(frontier):
            if c == 1:
                continue  # only the initial event; nothing to check
            clk = table[p][c - 1]
            for q, have in enumerate(frontier):
                if clk[q] > have:
                    return False
        return True

    def is_enabled(self, process: int) -> bool:
        """True iff appending the next event of ``process`` stays consistent.

        Only meaningful for consistent cuts: for those, the next event of
        ``process`` is *enabled* iff all its causal predecessors are already
        in the cut.
        """
        rows = self._computation._clk[process]
        next_index = self._frontier[process]
        if next_index >= len(rows):
            return False
        clk = rows[next_index]
        for q, have in enumerate(self._frontier):
            if q != process and clk[q] > have:
                return False
        return True

    def advance(self, process: int) -> "Cut":
        """The cut with the next event of ``process`` appended."""
        comp = self._computation
        if self._frontier[process] >= len(comp.events_of(process)):
            raise InvalidCutError(
                f"process {process} already at its final event"
            )
        frontier = list(self._frontier)
        frontier[process] += 1
        return Cut(comp, frontier)

    def retreat(self, process: int) -> "Cut":
        """The cut with the last event of ``process`` removed."""
        if self._frontier[process] <= 1:
            raise InvalidCutError(
                f"process {process} already at its initial event"
            )
        frontier = list(self._frontier)
        frontier[process] -= 1
        return Cut(self._computation, frontier)

    def successors(self) -> Iterator["Cut"]:
        """Consistent cuts that immediately succeed this consistent cut."""
        for p in range(self._computation.num_processes):
            if self.is_enabled(p):
                yield self.advance(p)

    def predecessors(self) -> Iterator["Cut"]:
        """Consistent cuts that immediately precede this consistent cut.

        Removing the last event of process ``p`` keeps the cut consistent iff
        no other frontier event causally depends on it.
        """
        frontier = self._frontier
        table = self._computation._clk
        for p, c in enumerate(frontier):
            if c == 1:
                continue
            if not any(
                table[q][have - 1][p] >= c
                for q, have in enumerate(frontier)
                if q != p and have > 1
            ):
                yield self.retreat(p)

    def union(self, other: "Cut") -> "Cut":
        """Componentwise maximum (join in the cut lattice)."""
        self._check_same(other)
        return Cut(
            self._computation,
            [max(a, b) for a, b in zip(self._frontier, other._frontier)],
        )

    def intersection(self, other: "Cut") -> "Cut":
        """Componentwise minimum (meet in the cut lattice)."""
        self._check_same(other)
        return Cut(
            self._computation,
            [min(a, b) for a, b in zip(self._frontier, other._frontier)],
        )

    def subset_of(self, other: "Cut") -> bool:
        """True iff every event of this cut is in ``other`` (reachability)."""
        self._check_same(other)
        return all(a <= b for a, b in zip(self._frontier, other._frontier))

    # ------------------------------------------------------------------
    # Predicate-evaluation support
    # ------------------------------------------------------------------
    def value(self, process: int, name: str, default: Any = None) -> Any:
        """Value of local variable ``name`` of ``process`` at this cut."""
        return self.last_event(process).value(name, default)

    def values(self, name: str, default: Any = None) -> List[Any]:
        """Value of ``name`` on every process at this cut, in process order."""
        return [
            self.value(p, name, default)
            for p in range(self._computation.num_processes)
        ]

    def variable_sum(self, name: str) -> int:
        """Sum over processes of integer variable ``name`` at this cut."""
        total = 0
        for p in range(self._computation.num_processes):
            total += int(self.value(p, name, 0))
        return total

    def crossing_messages(self) -> List[Tuple[EventId, EventId]]:
        """Messages in flight at this cut (sent inside, received outside).

        The channel state of the global state this cut denotes — what a
        Chandy–Lamport snapshot records as channel contents.
        """
        return [
            (send, recv)
            for send, recv in self._computation.messages
            if self.contains(send) and not self.contains(recv)
        ]

    # ------------------------------------------------------------------
    # Dunders
    # ------------------------------------------------------------------
    def _check_same(self, other: "Cut") -> None:
        if self._computation is not other._computation:
            raise InvalidCutError("cuts belong to different computations")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cut):
            return NotImplemented
        return (
            self._computation is other._computation
            and self._frontier == other._frontier
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Cut{self._frontier}"


def initial_cut(computation: Computation) -> Cut:
    """The least consistent cut: only the initial events."""
    return Cut(computation, (1,) * computation.num_processes)


def final_cut(computation: Computation) -> Cut:
    """The greatest consistent cut: all events."""
    return Cut(
        computation,
        [len(computation.events_of(p)) for p in range(computation.num_processes)],
    )


def least_consistent_cut(
    computation: Computation, event_ids: Iterable[EventId]
) -> Optional[Cut]:
    """Least consistent cut passing through all given events, if one exists.

    This realizes the paper's Observation 1: pairwise-consistent events
    (not necessarily one per process) always admit a consistent cut passing
    through all of them — namely the union of their causal pasts, raised to
    include every process's initial event.  Returns None when no consistent
    cut passes through every listed event (i.e. some pair is inconsistent or
    two distinct events share a process).
    """
    ids = list(event_ids)
    frontier: List[int] = [1] * computation.num_processes
    required: Dict[int, int] = {}
    for eid in ids:
        past = computation.causal_past_frontier(eid)
        for q, c in enumerate(past):
            if c > frontier[q]:
                frontier[q] = c
        p, idx = eid
        want = idx + 1
        if p in required and required[p] != want:
            return None  # two distinct events on the same process
        required[p] = want
    cut = Cut(computation, frontier)
    if not cut.is_consistent():
        return None
    for p, want in required.items():
        if cut.frontier[p] != want:
            return None  # some event was overtaken by another's causal past
    return cut
