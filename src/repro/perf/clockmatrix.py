"""Dense numpy copy of the clock table with batched causality kernels.

Every hot comparison in the detection engines reduces to reading one
component of one Fidge–Mattern clock: with the repo's clock convention
(initial events carry unit vectors, the running clock of each process
starts at all-ones) the *reflexive* causal order is, uniformly and with
no initial-event special cases,

    ``e = (p, i) ⊑ f``   ⟺   ``clk(f)[p] >= i + 1``

The computation's clock table (``Computation._clk``, shared by
:class:`~repro.perf.causality.CausalityIndex`) answers single reads
fastest.  :class:`ClockMatrix` is a derived copy of that table as one
dense ``(total_events, n)`` ``int64`` matrix — rows in process-major
order — for the kernels that compare many clocks at once:

* :meth:`advance_enabled` / :meth:`successor_frontiers_batch` — the
  frontier-consistency kernel: which processes may advance from each of a
  batch of consistent frontiers (the inner loop of every lattice walk);
* :meth:`closure_at_least` — least consistent cut above a frontier with a
  per-process floor, as a vectorized fixpoint;
* the batched combination sweep
  (:class:`~repro.detection.work_optimal.CombinationSweep`), which reads
  :attr:`ClockMatrix.clk` directly.

The matrix needs numpy.  When numpy is unavailable (or
``REPRO_NO_NUMPY`` is set) :data:`HAVE_NUMPY` is False and nobody builds
one: the index answers the same questions from the table.  Obtain the
matrix through :attr:`repro.perf.causality.CausalityIndex.matrix` so it
is built once per computation; kernel usage is tallied in
:attr:`counters` and mirrored to ``perf.clockmatrix.*`` metrics by the
index.
"""

from __future__ import annotations

import os
from itertools import accumulate
from typing import List, Sequence, Tuple

__all__ = ["ClockMatrix", "numpy_available", "HAVE_NUMPY"]

EventId = Tuple[int, int]
Frontier = Tuple[int, ...]

try:  # pragma: no cover - exercised via the no-numpy CI job
    if os.environ.get("REPRO_NO_NUMPY"):
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None


def numpy_available() -> bool:
    """True iff the vectorized kernels are active in this process."""
    return HAVE_NUMPY


class ClockMatrix:
    """Dense clock matrix of one computation plus batched kernels.

    Args:
        clocks: ``clocks[p][i]`` is the component tuple of event ``(p, i)``
            (the computation's clock table).
    """

    __slots__ = (
        "num_processes",
        "lengths",
        "offsets",
        "clk",
        "counters",
    )

    def __init__(self, clocks: Sequence[Sequence[Tuple[int, ...]]]):
        self.num_processes = len(clocks)
        self.lengths: List[int] = [len(rows) for rows in clocks]
        self.offsets: List[int] = [0, *accumulate(self.lengths[:-1])]
        self.clk = _np.array(
            [row for rows in clocks for row in rows], dtype=_np.int64
        )
        self.counters = {"batch_calls": 0, "rows": 0}

    # ------------------------------------------------------------------
    # Row addressing
    # ------------------------------------------------------------------
    def row(self, event: EventId) -> int:
        """Matrix row of one event id."""
        return self.offsets[event[0]] + event[1]

    def _tally(self, rows: int) -> None:
        self.counters["batch_calls"] += 1
        self.counters["rows"] += rows

    # ------------------------------------------------------------------
    # Frontier-consistency kernel (lattice walks)
    # ------------------------------------------------------------------
    def advance_enabled(self, frontiers: Sequence[Frontier]):
        """Which process advances keep each frontier consistent.

        Returns a ``(B, n)`` boolean matrix: entry ``[b, p]`` is True iff
        process ``p`` has a next event at ``frontiers[b]`` and appending
        it yields a consistent frontier again (the next event's clock is
        covered on every *other* component).
        """
        F = _np.asarray(frontiers, dtype=_np.int64)
        self._tally(F.shape[0] * self.num_processes)
        enabled = _np.zeros(F.shape, dtype=bool)
        for p in range(self.num_processes):
            exists = F[:, p] < self.lengths[p]
            if not exists.any():
                continue
            rows = self.offsets[p] + _np.minimum(F[:, p], self.lengths[p] - 1)
            covered = self.clk[rows] <= F
            covered[:, p] = True
            enabled[:, p] = exists & covered.all(axis=1)
        return enabled

    def successor_frontiers_batch(
        self, frontiers: Sequence[Frontier]
    ) -> List[List[Frontier]]:
        """Per-input successor frontiers, in process order.

        Batched equivalent of
        :meth:`repro.perf.causality.CausalityIndex.successor_frontiers`
        applied to each input independently.
        """
        enabled = self.advance_enabled(frontiers)
        out: List[List[Frontier]] = []
        for b, frontier in enumerate(frontiers):
            flags = enabled[b]
            out.append(
                [
                    frontier[:p] + (frontier[p] + 1,) + frontier[p + 1 :]
                    for p in range(self.num_processes)
                    if flags[p]
                ]
            )
        return out

    # ------------------------------------------------------------------
    # Closure kernel (interval-anchor handoffs)
    # ------------------------------------------------------------------
    def closure_at_least(
        self, base: Frontier, process: int, minimum: int
    ) -> Frontier:
        """Least consistent frontier >= base with ``f[process] >= minimum``.

        The fixpoint joins, per pass, the clocks of all current frontier
        events into the frontier itself (initial events contribute nothing
        beyond their own unit component, so no rows are skipped).
        """
        frontier = _np.asarray(base, dtype=_np.int64).copy()
        if frontier[process] < minimum:
            frontier[process] = minimum
        offsets = _np.asarray(self.offsets, dtype=_np.int64)
        while True:
            self._tally(self.num_processes)
            joined = self.clk[offsets + frontier - 1].max(axis=0)
            merged = _np.maximum(frontier, joined)
            if (merged == frontier).all():
                return tuple(int(v) for v in frontier)
            frontier = merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClockMatrix(processes={self.num_processes}, "
            f"rows={len(self.clk)})"
        )
