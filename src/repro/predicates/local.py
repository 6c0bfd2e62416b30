"""Local predicates and literals.

A predicate is *local* iff it depends only on the variables of a single
process (paper, Section 2.3).  The library's standard local predicate is a
boolean variable or its negation — a :class:`Literal` — but arbitrary
per-process functions are supported via :class:`LocalPredicate`.

Given a local predicate, the *true events* of a computation are the events
after which the predicate holds; the paper's algorithms all operate on true
events rather than cuts directly (Observation 1 lets pairwise-consistent
true events be completed into a witness cut).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.computation import Computation, Cut
from repro.events import Event, EventId
from repro.predicates.base import GlobalPredicate

__all__ = [
    "LocalPredicate",
    "Literal",
    "local",
    "local_fn",
    "true_events",
]


class LocalPredicate(GlobalPredicate):
    """A predicate of the variables of a single process.

    Args:
        process: The hosting process.
        fn: Function of the process's current :class:`Event`.
        name: Human-readable label.
    """

    def __init__(self, process: int, fn: Callable[[Event], bool], name: str):
        if process < 0:
            raise ValueError("process must be non-negative")
        self.process = process
        self._fn = fn
        self._name = name

    def evaluate(self, cut: Cut) -> bool:
        return self.holds_after(cut.last_event(self.process))

    def holds_after(self, event: Event) -> bool:
        """Truth value after the given event of the hosting process."""
        if event.process != self.process:
            raise ValueError(
                f"event of process {event.process} passed to local predicate "
                f"of process {self.process}"
            )
        return bool(self._fn(event))

    def description(self) -> str:
        return self._name

    def __repr__(self) -> str:
        return f"LocalPredicate(p{self.process}: {self._name})"


class Literal(LocalPredicate):
    """A boolean variable of one process, possibly negated.

    The building block of CNF predicates: clause ``x_1 OR NOT x_2`` is
    ``[Literal(1, "x"), Literal(2, "x", negated=True)]``.
    """

    def __init__(self, process: int, variable: str, negated: bool = False):
        self.variable = variable
        self.negated = bool(negated)
        sign = "¬" if negated else ""

        def fn(event: Event, _var: str = variable, _neg: bool = negated) -> bool:
            value = bool(event.value(_var, False))
            return (not value) if _neg else value

        super().__init__(process, fn, f"{sign}{variable}@p{process}")
        self._key = (self.process, variable, self.negated)

    def negate(self) -> "Literal":
        """The complementary literal."""
        return Literal(self.process, self.variable, not self.negated)

    @property
    def key(self) -> Tuple[int, str, bool]:
        """Hashable identity of the literal: ``(process, variable, negated)``."""
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Literal(p{self.process}, {self.variable!r}, negated={self.negated})"


def local(process: int, variable: str, negated: bool = False) -> Literal:
    """Shorthand for a (possibly negated) boolean-variable literal."""
    return Literal(process, variable, negated)


def local_fn(process: int, fn: Callable[[Event], bool], name: str) -> LocalPredicate:
    """Shorthand for an arbitrary per-process predicate."""
    return LocalPredicate(process, fn, name)


def true_events(
    computation: Computation,
    predicate: LocalPredicate,
    include_initial: bool = True,
) -> List[EventId]:
    """Events of the hosting process after which the predicate holds.

    Initial events are included by default because consistent cuts may pass
    through them (a variable may be true initially).  The engines read a
    :class:`Literal`'s true events from
    :meth:`repro.perf.CausalityIndex.literal_true_events`, built once per
    computation; this uncached scan serves opaque local predicates and the
    referees that check the engines.
    """
    result: List[EventId] = []
    events = computation.events_of(predicate.process)
    start = 0 if include_initial else 1
    for event in events[start:]:
        if predicate.holds_after(event):
            result.append(event.event_id)
    return result
