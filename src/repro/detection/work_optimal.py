"""Batched elimination rounds for the Section 3.3 combination sweeps.

The process-choice and chain-choice engines decide ``prod c_j``
independent conjunctive sub-problems, one per combination of one chain
per group.  :class:`CombinationSweep` scores a whole block of those
combinations at once with the round formulation of Garg's work-optimal
algorithm (arXiv 2008.12516).  Each round, for every live combination:

1. **join** — compute the *need* vector, the componentwise join of the
   clocks of the currently selected candidates
   (``need[p] = max_f clk(f)[p]``);
2. **eliminate** — a candidate ``e = (p, i)`` survives iff
   ``need[p] <= i + 1``: a violation means some other selected ``f`` has
   ``clk(f)[p] > i + 1``, i.e. ``succ(e) ⊑ f``, the classical CPDHB
   elimination (``e`` can pair with nothing at or after ``f``);
3. **advance** — every eliminated cursor moves to the first later chain
   event that satisfies the round's need vector.

A round with no eliminations is a fixpoint, which is exactly pairwise
consistency of the selection; an exhausted chain kills the combination.
Both the rounds and the serial
:class:`~repro.detection.garg_waldecker.SelectionScan` converge to the
**least** consistent selection, so verdict and witness match the
per-rank scan.  Cross-process chain-cover chains are sound too: the jump
re-checks each candidate against its own process's need component, and
the own-chain contribution to *need* can never eliminate a later event
of the same chain (its clock is dominated by theirs).

The rounds pay off only batched: one ``(B, m, n)`` array join per round
replaces ``B`` interpreted scans.  A single conjunctive predicate runs
the serial scan instead, and so does a sweep too small to amortize the
array overhead or a process without numpy (:func:`use_batched_sweep`).
:class:`RankScanner` makes that choice for a sweep and is the one
rank-scanning function of the serial and the pooled drivers.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.computation import Computation
from repro.detection.garg_waldecker import SelectionScan
from repro.events import EventId
from repro.obs import span
from repro.perf.causality import CausalityIndex
from repro.perf.clockmatrix import HAVE_NUMPY

__all__ = [
    "CombinationSweep",
    "POOL_MIN_COMBINATIONS",
    "RankScanner",
    "combination_at",
    "rank_chunks",
    "use_batched_sweep",
    "VEC_MIN_COMBINATIONS",
    "VEC_CHUNK",
]

#: Below this many combinations a per-rank CPDHB scan beats the batched
#: kernel's fixed array overhead; the gate must be a pure function of the
#: sweep size so serial drivers and pool workers always agree on it.
VEC_MIN_COMBINATIONS = 64
#: Below this many combinations a sweep never forks a worker pool: on two
#: cores the pool first beats the serial sweep (1.3-1.5x) at 65,536.
POOL_MIN_COMBINATIONS = 65_536
#: Ranks per batched block.  Serial sweeps and pools consume identical
#: blocks — the invocations/advances parity the tests pin down.
VEC_CHUNK = 4096
#: Ranks per per-rank chunk: small enough for a pool's early cancellation
#: to bite, large enough to amortize one IPC round trip over many scans.
MAX_CHUNK = 64


def use_batched_sweep(total: int) -> bool:
    """Should a sweep of ``total`` combinations use the batched kernel?"""
    return HAVE_NUMPY and total >= VEC_MIN_COMBINATIONS


class CombinationSweep:
    """Vectorized work-optimal scoring of combination-rank blocks.

    One instance per (computation, per-group chain table); constructing
    it pads each group's chains into dense ``(chains, max_len)`` row /
    process / position arrays.  :meth:`scan_block` then runs the
    elimination rounds for a whole contiguous block of ranks at once:
    cursors live in a ``(B, m)`` matrix, the need vectors in ``(B, n)``,
    and a rank survives (its combination admits a consistent selection)
    iff its row reaches a round with no eliminations.

    Requires numpy (gate with :func:`use_batched_sweep`); results —
    verdict, winning rank, selection — equal the per-rank
    :class:`~repro.detection.garg_waldecker.SelectionScan` loop by the
    least-fixpoint argument.
    """

    def __init__(
        self,
        computation: Computation,
        per_group_chains: Sequence[Sequence[Sequence[EventId]]],
    ):
        import numpy as np

        self._np = np
        matrix = CausalityIndex.of(computation).matrix
        self._matrix = matrix
        self._m = len(per_group_chains)
        self._group_sizes = [len(chains) for chains in per_group_chains]
        self._rows: List = []
        self._procs: List = []
        self._pos: List = []
        self._len: List = []
        for chains in per_group_chains:
            count = max(1, len(chains))
            width = max([len(c) for c in chains] + [1])
            rows = np.zeros((count, width), dtype=np.int64)
            procs = np.zeros((count, width), dtype=np.int64)
            pos = np.zeros((count, width), dtype=np.int64)
            lens = np.zeros(count, dtype=np.int64)
            for g, chain in enumerate(chains):
                lens[g] = len(chain)
                for k, (p, i) in enumerate(chain):
                    rows[g, k] = matrix.row((p, i))
                    procs[g, k] = p
                    pos[g, k] = i + 1
            self._rows.append(rows)
            self._procs.append(procs)
            self._pos.append(pos)
            self._len.append(lens)

    def _decode(self, start: int, stop: int):
        """Mixed-radix digits of ranks [start, stop) in product order.

        ``start`` is split into digits as a Python int and the in-block
        offsets are added with carries, so no array holds a rank: a
        sweep may have more ranks than an int64 can count.
        """
        np = self._np
        offsets = np.arange(stop - start, dtype=np.int64)
        carry = np.zeros(offsets.size, dtype=np.int64)
        digits = np.empty((offsets.size, self._m), dtype=np.int64)
        for j in range(self._m - 1, -1, -1):
            size = max(1, self._group_sizes[j])
            start, base = divmod(start, size)
            column = base + offsets % size + carry
            digits[:, j] = column % size
            carry = column // size
            offsets = offsets // size
        return digits

    def scan_block(
        self, start: int, stop: int
    ) -> Tuple[Optional[int], Optional[List[EventId]], int, int]:
        """Scan ranks ``[start, stop)``; every rank runs to its verdict.

        Returns ``(winning_rank, selection, advances, rounds)`` with the
        *lowest* successful rank of the block (None when the whole block
        fails).  ``advances`` counts cursor eliminations across all ranks
        of the block — block-partition independent, since each rank's
        round evolution never depends on its neighbours.
        """
        np = self._np
        matrix = self._matrix
        m, B = self._m, stop - start
        digits = self._decode(start, stop)
        cur = np.zeros((B, m), dtype=np.int64)
        active = np.ones(B, dtype=bool)
        for j in range(m):
            active &= self._len[j][digits[:, j]] > 0
        success = np.zeros(B, dtype=bool)
        advances = 0
        rounds = 0
        while active.any():
            rounds += 1
            idx = np.nonzero(active)[0]
            A = idx.size
            sel_rows = np.empty((A, m), dtype=np.int64)
            sel_pos = np.empty((A, m), dtype=np.int64)
            sel_proc = np.empty((A, m), dtype=np.int64)
            for j in range(m):
                dj = digits[idx, j]
                cj = cur[idx, j]
                sel_rows[:, j] = self._rows[j][dj, cj]
                sel_pos[:, j] = self._pos[j][dj, cj]
                sel_proc[:, j] = self._procs[j][dj, cj]
            need = matrix.clk[sel_rows].max(axis=1)
            elim = (
                need[np.arange(A)[:, None], sel_proc] > sel_pos
            )
            stable = ~elim.any(axis=1)
            success[idx[stable]] = True
            active[idx[stable]] = False
            pair_a, pair_j = np.nonzero(elim)
            if pair_a.size == 0:
                continue
            # Advance every eliminated cursor to the first chain event
            # satisfying this round's need vector, in one vectorized pass
            # per group: an event at offset k survives iff
            # ``pos[k] >= need[proc[k]]`` (chain-cover chains may hop
            # processes, hence the per-event process gather), every
            # skipped event counts as one advance, and running off the
            # chain kills the combination.
            for j in range(m):
                mask = pair_j == j
                if not mask.any():
                    continue
                sel = pair_a[mask]
                eb = idx[sel]
                dj = digits[eb, j]
                cj = cur[eb, j]
                lens = self._len[j][dj]
                pos_rows = self._pos[j][dj]
                proc_rows = self._procs[j][dj]
                ok = pos_rows >= need[
                    sel[:, None], proc_rows
                ]
                ks = np.arange(pos_rows.shape[1])[None, :]
                viable = ok & (ks > cj[:, None]) & (ks < lens[:, None])
                alive = viable.any(axis=1)
                new_cur = np.where(alive, viable.argmax(axis=1), lens)
                advances += int((new_cur - cj).sum())
                cur[eb, j] = new_cur
                if not alive.all():
                    active[eb[~alive]] = False
        if not success.any():
            return None, None, advances, rounds
        first = int(np.nonzero(success)[0][0])
        selection: List[EventId] = []
        for j in range(m):
            d = int(digits[first, j])
            c = int(cur[first, j])
            selection.append(
                (
                    int(self._procs[j][d, c]),
                    int(self._pos[j][d, c]) - 1,
                )
            )
        return start + first, selection, advances, rounds


def combination_at(
    per_group_chains: Sequence[Sequence[Sequence[EventId]]], rank: int
) -> List[Sequence[EventId]]:
    """The ``rank``-th combination in ``itertools.product`` order.

    Mixed-radix decode with the last group as the fastest-varying digit,
    matching ``itertools.product(*per_group_chains)`` exactly.
    """
    combo: List[Sequence[EventId]] = []
    for chains in reversed(per_group_chains):
        rank, digit = divmod(rank, len(chains))
        combo.append(chains[digit])
    combo.reverse()
    return combo


def rank_chunks(total: int, start: int = 0) -> Iterator[Tuple[int, int]]:
    """Contiguous rank chunks covering ``[start, total)``, in rank order.

    Chunks are :data:`VEC_CHUNK` ranks for batched sweeps and
    :data:`MAX_CHUNK` for per-rank ones, so a serial sweep and a pool
    taking over at a chunk boundary score identical chunks and report
    identical ``invocations`` and ``advances``.

    The chunks are yielded lazily: ``total`` is a product of clause or
    group widths and can be far too large to list.
    """
    chunk = VEC_CHUNK if use_batched_sweep(total) else MAX_CHUNK
    for i in range(start, total, chunk):
        yield i, min(i + chunk, total)


class RankScanner:
    """Scores rank ranges of one combination space with one of two kernels.

    Sweeps that pass :func:`use_batched_sweep` score a whole block per
    call with the batched :class:`CombinationSweep` (built on first use);
    the others run the serial
    :class:`~repro.detection.garg_waldecker.SelectionScan` rank by rank.
    The serial driver and every pool worker
    (:mod:`repro.perf.parallel`) call :meth:`scan`, so both sweeps do
    identical work.
    """

    def __init__(
        self,
        computation: Computation,
        per_group_chains: Sequence[Sequence[Sequence[EventId]]],
    ):
        self._computation = computation
        self._chains = per_group_chains
        self._batched = use_batched_sweep(
            math.prod(len(chains) for chains in per_group_chains)
        )
        self._sweep: Optional[CombinationSweep] = None

    def scan(
        self, start: int, stop: int
    ) -> Tuple[Optional[int], Optional[List[EventId]], int, int]:
        """Scan ranks ``[start, stop)`` up to the first success.

        Returns ``(winning_rank, selection, invocations, advances)``, with
        ``(None, None, ...)`` when no rank succeeds.  A batched block runs
        every rank to its verdict and counts each as an invocation; the
        per-rank loop stops at its first success.
        """
        if self._batched:
            if self._sweep is None:
                self._sweep = CombinationSweep(self._computation, self._chains)
            with span("scan.batch", ranks=stop - start) as scan_sp:
                rank, selection, advances, rounds = self._sweep.scan_block(
                    start, stop
                )
                scan_sp.set(advances=advances, rounds=rounds)
            return rank, selection, stop - start, advances
        advances = 0
        for rank in range(start, stop):
            with span("scan.cpdhb") as scan_sp:
                scan = SelectionScan(
                    self._computation, combination_at(self._chains, rank)
                )
                selection = scan.run()
                scan_sp.set(advances=scan.advances)
            advances += scan.advances
            if selection is not None:
                return rank, selection, rank - start + 1, advances
        return None, None, stop - start, advances
