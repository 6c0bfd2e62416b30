"""Parallel batch driver for the Section 3.3 combination sweeps.

The process-choice and chain-choice engines pay for NP-hardness with
``prod c_j`` *independent* CPDHB scans — an embarrassingly parallel sweep
that the serial driver walks chunk by chunk.  When the driver hands a
large sweep over after its first chunk, this module fans the remaining
contiguous rank chunks across a ``multiprocessing`` pool, and each worker
scores them with the serial driver's
:class:`~repro.detection.work_optimal.RankScanner`, preserving the serial
engine's exact semantics:

* **Deterministic first witness.**  Combinations are ranked in
  ``itertools.product`` order (last group varies fastest).  Chunks
  partition the rank space contiguously and results are consumed in
  submission order (``imap``), so the first successful chunk observed
  contains the globally minimal successful rank, and within a chunk the
  scan stops at its first success.  The selection returned is therefore
  the one the serial loop would have found — verdict *and* witness are
  identical by construction.
* **Early cancellation.**  Once a success is consumed, a shared stop
  event makes every later chunk return unscanned and ends the lazy chunk
  stream, and the pool is closed and joined once in-flight chunks
  finish.  It is never terminated: a
  worker killed while it sends a result leaves the result queue's lock
  held, and the pool's shutdown then waits on that lock forever.
* **Fork-friendly distribution.**  Workers receive the computation via
  the pool initializer (inherited by ``fork`` on POSIX — no per-task
  pickling of the trace) and build the shared
  :class:`~repro.perf.causality.CausalityIndex` once at startup.

If a pool cannot be created (sandboxes without process spawning,
interpreter shutdown), :func:`run_combination_search` returns ``None``
and the caller goes on with the serial loop — behaviour, again,
identical.

Pool telemetry lands in the ``perf.pool.*`` metrics when observability
is enabled.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.events import EventId
from repro.obs.config import STATE
from repro.obs.metrics import registry
from repro.obs.progress import PROGRESS, tracker
from repro.obs.spans import take_roots
from repro.perf.causality import CausalityIndex

__all__ = ["ParallelOutcome", "run_combination_search"]

@dataclass(frozen=True)
class ParallelOutcome:
    """Aggregate result of a parallel combination sweep."""

    selection: Optional[List[EventId]]  #: witness selection, or None
    rank: Optional[int]  #: rank of the winning combination, or None
    invocations: int  #: CPDHB scans actually executed (across workers)
    advances: int  #: eliminations across all executed scans
    workers: int  #: pool size used
    chunks: int  #: chunks consumed before returning


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_WORKER_STATE: Optional[Tuple[object, object, object]] = None


def _init_worker(computation, per_group_chains, stop) -> None:
    """Pool initializer: pin the shared inputs and prebuild the index."""
    from repro.detection.work_optimal import RankScanner

    global _WORKER_STATE
    _WORKER_STATE = (
        computation,
        RankScanner(computation, per_group_chains),
        stop,
    )
    # Progress pacing and deadline enforcement belong to the driving
    # process; a forked worker must not tick the parent's sink or raise
    # DeadlineExceeded where nobody catches it.
    PROGRESS.active = None
    CausalityIndex.of(computation)


def _scan_chunk(bounds: Tuple[int, int]):
    """Scan ranks ``[start, stop)`` with the worker's rank scanner.

    Returns ``(winning_rank_or_None, selection_or_None, invocations,
    advances, metrics_snapshot_or_None)``; once the driving process has
    set the stop event, returns at once with nothing scanned.

    When observability is enabled the worker registry is reset at chunk
    start and snapshotted at chunk end, so the driver can merge each
    chunk's counter/histogram deltas into the parent registry — without
    this, instrument updates made inside fork-pool workers would die with
    the worker.  Span trees stay worker-local (only their histogram
    aggregates cross the process boundary).
    """
    assert _WORKER_STATE is not None, "worker used before initialization"
    computation, scanner, stop = _WORKER_STATE
    if stop.is_set():
        return None, None, 0, 0, None
    collect = STATE.enabled
    if collect:
        registry().reset()
        take_roots()
    winning_rank, selection, invocations, advances = scanner.scan(*bounds)
    snapshot = None
    if collect:
        CausalityIndex.of(computation).maybe_flush_metrics()
        take_roots()
        snapshot = registry().snapshot()
    return winning_rank, selection, invocations, advances, snapshot


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def run_combination_search(
    computation,
    per_group_chains: Sequence[Sequence[Sequence[EventId]]],
    workers: int,
    start: int = 0,
) -> Optional[ParallelOutcome]:
    """Sweep the chain combinations from rank ``start`` on over a pool.

    ``start`` must be a :func:`~repro.detection.work_optimal.rank_chunks`
    boundary.  Returns the :class:`ParallelOutcome` (selection ``None``
    when no combination admits a consistent selection; counters cover
    the ranks from ``start`` on), or ``None`` when no pool could be
    created — the caller must then scan those ranks itself.
    """
    total = math.prod(len(chains) for chains in per_group_chains)
    if total <= start:
        return ParallelOutcome(None, None, 0, 0, workers, 0)
    from repro.detection.work_optimal import rank_chunks, use_batched_sweep

    if use_batched_sweep(total):
        # Import numpy and build the clock matrix here, once: forked
        # workers inherit both instead of each importing numpy itself.
        CausalityIndex.of(computation).matrix
    frozen = [
        [list(chain) for chain in chains] for chains in per_group_chains
    ]
    ctx = _pool_context()
    try:
        stop = ctx.Event()
        pool = ctx.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(computation, frozen, stop),
        )
    except (OSError, ValueError, RuntimeError):
        if STATE.enabled:
            registry().counter("perf.pool.fallbacks").inc()
        return None
    invocations = 0
    advances = 0
    consumed = 0
    cancelled = False
    outcome: Optional[ParallelOutcome] = None
    trk = tracker("detect.combinations", total=total)
    trk.step(start)
    try:
        # ``imap`` pulls the lazy chunks from its handler thread, which a
        # closed pool does not stop, so the chunks end at the stop event.
        # A second, identical ``rank_chunks`` walk pairs each result with
        # its chunk.
        chunks = itertools.takewhile(
            lambda _: not stop.is_set(), rank_chunks(total, start)
        )
        results = pool.imap(_scan_chunk, chunks)
        for (_, chunk_stop), result in zip(
            rank_chunks(total, start), results
        ):
            rank, selection, chunk_inv, chunk_adv, chunk_metrics = result
            consumed += 1
            invocations += chunk_inv
            advances += chunk_adv
            if chunk_metrics is not None and STATE.enabled:
                registry().merge_snapshot(chunk_metrics)
            trk.step(chunk_inv)
            if selection is not None:
                cancelled = chunk_stop < total
                outcome = ParallelOutcome(
                    selection=[tuple(eid) for eid in selection],
                    rank=rank,
                    invocations=invocations,
                    advances=advances,
                    workers=workers,
                    chunks=consumed,
                )
                break
    finally:
        stop.set()
        pool.close()
        pool.join()
    trk.finish()
    if outcome is None:
        outcome = ParallelOutcome(
            None, None, invocations, advances, workers, consumed
        )
    if STATE.enabled:
        reg = registry()
        reg.gauge("perf.pool.workers").set(workers)
        reg.counter("perf.pool.chunks").inc(outcome.chunks)
        reg.counter("perf.pool.scans").inc(outcome.invocations)
        if cancelled:
            reg.counter("perf.pool.early_cancels").inc()
    return outcome
