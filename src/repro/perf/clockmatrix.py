"""Dense numpy copy of the clock table for the batched combination sweep.

Every hot comparison in the detection engines reduces to reading one
component of one Fidge–Mattern clock: with the repo's clock convention
(initial events carry unit vectors, the running clock of each process
starts at all-ones) the *reflexive* causal order is, uniformly and with
no initial-event special cases,

    ``e = (p, i) ⊑ f``   ⟺   ``clk(f)[p] >= i + 1``

The computation's clock table (``Computation._clk``, shared by
:class:`~repro.perf.causality.CausalityIndex`) answers single reads
fastest, and serves the lattice walks and the consistency closure.
:class:`ClockMatrix` is a derived copy of that table as one dense
``(total_events, n)`` ``int64`` matrix — rows in process-major order —
for the one engine that compares many clocks at once: the batched
combination sweep
(:class:`~repro.detection.work_optimal.CombinationSweep`), which gathers
:attr:`ClockMatrix.clk` rows through :meth:`ClockMatrix.row`.

The matrix needs numpy, and numpy is imported only when a matrix is
built, so a process that never runs a batched sweep never loads it.
:data:`HAVE_NUMPY` says whether numpy is installed (and not disabled by
``REPRO_NO_NUMPY``) without importing it; when it is False nobody builds
a matrix and the sweep runs its serial scan instead.  Obtain the matrix
through :attr:`repro.perf.causality.CausalityIndex.matrix` so it is
built once per computation.
"""

from __future__ import annotations

import os
from importlib.util import find_spec
from itertools import accumulate
from typing import List, Sequence, Tuple

__all__ = ["ClockMatrix", "numpy_available", "HAVE_NUMPY"]

EventId = Tuple[int, int]

HAVE_NUMPY = not os.environ.get("REPRO_NO_NUMPY") and (
    find_spec("numpy") is not None
)


def numpy_available() -> bool:
    """True iff the batched sweep may build clock matrices in this process."""
    return HAVE_NUMPY


class ClockMatrix:
    """Dense clock matrix of one computation.

    Args:
        clocks: ``clocks[p][i]`` is the component tuple of event ``(p, i)``
            (the computation's clock table).
    """

    __slots__ = ("offsets", "clk")

    def __init__(self, clocks: Sequence[Sequence[Tuple[int, ...]]]):
        import numpy as np

        lengths: List[int] = [len(rows) for rows in clocks]
        self.offsets: List[int] = [0, *accumulate(lengths[:-1])]
        self.clk = np.array(
            [row for rows in clocks for row in rows], dtype=np.int64
        )

    def row(self, event: EventId) -> int:
        """Matrix row of one event id."""
        return self.offsets[event[0]] + event[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClockMatrix(processes={len(self.offsets)}, "
            f"rows={len(self.clk)})"
        )
