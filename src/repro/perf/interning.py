"""Cut interning keyed on frontier tuples.

The lattice walk (:class:`repro.computation.lattice.LevelWalk`) and its
consumers — the Cooper–Marzullo engines and ``iter_levels`` — track plain
frontier tuples: successor expansion and within-level deduplication never
construct a :class:`~repro.computation.cut.Cut`.  When a consumer needs a
``Cut`` (to evaluate a predicate on it, or to hand it out), a
:class:`CutInterner` supplies one canonical instance per frontier tuple,
so each distinct consistent cut is materialized exactly once per
computation, however many queries or lattice edges reach it.

The interner is obtained from
:attr:`repro.perf.causality.CausalityIndex.interner` (shared, living as
long as the computation) or constructed standalone for query-local use.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.computation.computation import Computation
from repro.computation.cut import Cut

__all__ = ["CutInterner"]


class CutInterner:
    """Canonical ``Cut`` instances keyed by frontier tuple."""

    __slots__ = ("_computation", "_cuts", "hits", "misses")

    def __init__(self, computation: Computation):
        self._computation = computation
        self._cuts: Dict[Tuple[int, ...], Cut] = {}
        self.hits = 0
        self.misses = 0

    def get(self, frontier: Tuple[int, ...]) -> Cut:
        """The canonical cut with this frontier (constructed on first use)."""
        cut = self._cuts.get(frontier)
        if cut is None:
            self.misses += 1
            cut = Cut(self._computation, frontier)
            self._cuts[frontier] = cut
        else:
            self.hits += 1
        return cut

    def intern(self, cut: Cut) -> Cut:
        """The canonical instance equal to ``cut`` (registering it if new)."""
        canonical = self._cuts.get(cut.frontier)
        if canonical is None:
            self.misses += 1
            self._cuts[cut.frontier] = cut
            return cut
        self.hits += 1
        return canonical

    def __len__(self) -> int:
        return len(self._cuts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CutInterner(cuts={len(self._cuts)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
