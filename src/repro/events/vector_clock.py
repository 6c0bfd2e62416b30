"""Fidge–Mattern vector clocks.

A vector clock timestamps each event with an integer vector of length *n*
(the number of processes).  Component ``i`` counts the events of process *i*
that causally precede (or equal) the timestamped event.  The fundamental
property is::

    e happened-before f   <=>   vc(e) < vc(f)       (componentwise <=, one <)
    e concurrent with f   <=>   neither vc(e) < vc(f) nor vc(f) < vc(e)

Vector clocks are the workhorse of every detection algorithm in this library:
they turn "did e happen before f?" into an O(n) comparison.  For event
clocks it is O(1): ``(p, i) ⊑ f`` iff ``vc(f)[p] >= i + 1``, which
:meth:`repro.computation.Computation.happened_before` reads off the
computation's clock table.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = ["VectorClock"]


class VectorClock:
    """An immutable integer vector with the pointwise partial order.

    Instances are created either empty (all zeros) via :meth:`zero`, or from
    an explicit sequence of component values.
    """

    __slots__ = ("_components",)

    def __init__(self, components: Iterable[int]):
        self._components: Tuple[int, ...] = tuple(int(c) for c in components)
        if any(c < 0 for c in self._components):
            raise ValueError("vector clock components must be non-negative")

    @classmethod
    def zero(cls, size: int) -> "VectorClock":
        """The all-zeros clock of the given dimension."""
        if size <= 0:
            raise ValueError("vector clock dimension must be positive")
        return cls((0,) * size)

    @property
    def components(self) -> Tuple[int, ...]:
        """The underlying tuple of components."""
        return self._components

    def __len__(self) -> int:
        return len(self._components)

    def __getitem__(self, i: int) -> int:
        return self._components[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._components)

    def __hash__(self) -> int:
        return hash(self._components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._components == other._components

    # ------------------------------------------------------------------
    # Partial-order comparisons
    # ------------------------------------------------------------------
    def __le__(self, other: "VectorClock") -> bool:
        """Pointwise <= (reflexive causal order)."""
        self._check_dim(other)
        return all(a <= b for a, b in zip(self._components, other._components))

    def __lt__(self, other: "VectorClock") -> bool:
        """Strict happened-before order: pointwise <= and not equal."""
        return self <= other and self._components != other._components

    def __ge__(self, other: "VectorClock") -> bool:
        return other <= self

    def __gt__(self, other: "VectorClock") -> bool:
        return other < self

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True iff the two clocks are incomparable (independent events)."""
        return not (self <= other) and not (other <= self)

    # ------------------------------------------------------------------
    # Construction of derived clocks
    # ------------------------------------------------------------------
    def merge(self, other: "VectorClock") -> "VectorClock":
        """Componentwise maximum (the receive-side update)."""
        self._check_dim(other)
        return VectorClock(
            max(a, b) for a, b in zip(self._components, other._components)
        )

    def tick(self, process: int) -> "VectorClock":
        """Increment the component of ``process`` (the local-step update)."""
        if not 0 <= process < len(self._components):
            raise ValueError(f"process {process} out of range")
        comps: List[int] = list(self._components)
        comps[process] += 1
        return VectorClock(comps)

    @staticmethod
    def join(clocks: Sequence["VectorClock"]) -> "VectorClock":
        """Componentwise maximum of a non-empty collection of clocks."""
        if not clocks:
            raise ValueError("join of empty clock collection")
        result = clocks[0]
        for clock in clocks[1:]:
            result = result.merge(clock)
        return result

    def _check_dim(self, other: "VectorClock") -> None:
        if len(self._components) != len(other._components):
            raise ValueError(
                f"dimension mismatch: {len(self._components)} vs "
                f"{len(other._components)}"
            )

    def __repr__(self) -> str:
        return f"VectorClock({list(self._components)})"
