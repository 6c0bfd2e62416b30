"""The multi-session monitoring service: sharding, supervision, drain.

:class:`MonitorService` hosts many concurrent monitored computations
(sessions), sharding them round-robin across a pool of supervised
:class:`~repro.service.worker.Worker` threads.  Robustness machinery:

* **Backpressure** per session (``block`` / ``reject`` / ``degrade``;
  see :mod:`repro.service.backpressure`).
* **Supervised restart**: a crashed worker's slot is restarted with a
  bumped epoch; sessions are rebuilt from ``checkpoint + journal`` and
  stale in-flight applies from the dead incarnation are epoch-fenced.
* **Dead-letter quarantine**: a poison observation is isolated to its
  session; co-tenants of the same worker never notice.
* **Graceful drain**: stop intake, settle queues, finish every open
  session, flush final verdicts + checkpoints + ledger records.
* **Eviction at close**: a closed session's queue, journal, checkpoint
  and monitors are released; only its final report is kept, as JSON
  text, in a bounded map of the most recent closes.

Metrics are ``monitor.service.*`` (docs/OBSERVABILITY.md); one
``repro-run-v1`` ledger record (``command: "session"``) is appended per
session lifecycle when a ledger path is configured.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import STATE, registry
from repro.service.backpressure import validate_policy
from repro.service.errors import (
    ServiceDraining,
    ServiceError,
    SessionRejected,
    UnknownSession,
)
from repro.service.session import Session, SessionConfig
from repro.service.worker import Worker

__all__ = ["MonitorService"]

#: Hard cap on restarts per slot — a crash-looping restore must not spin
#: forever (far above anything a healthy deployment reaches).
_MAX_RESTARTS_PER_SLOT = 1000

#: Final reports kept after close (~4 KB of JSON each).  Past the cap
#: the oldest closed id answers ``unknown-session`` and may be reopened.
_CLOSED_REPORTS_CAP = 1024


class _Slot:
    """One shard: its current worker incarnation and its sessions."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.epoch = 0
        self.worker: Optional[Worker] = None
        self.sessions: Dict[str, Session] = {}
        self.restarts = 0


class MonitorService:
    """A supervised pool of workers hosting monitor sessions.

    Args:
        workers: Worker (shard) count.
        checkpoint_dir: Directory for on-disk session checkpoints
            (``<session>.ckpt.json``, written atomically); None keeps
            checkpoints in memory only.
        checkpoint_every: Default journal entries between checkpoints.
        default_policy: Backpressure policy for sessions that don't pick
            one.
        default_queue_capacity: Ingest-queue bound for such sessions.
        block_timeout_s: How long the ``block`` policy may stall one
            submit before failing it.
        ledger_path: Run-ledger file for per-session lifecycle records
            (None disables).
    """

    def __init__(
        self,
        workers: int = 2,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 64,
        default_policy: str = "block",
        default_queue_capacity: int = 256,
        block_timeout_s: float = 10.0,
        ledger_path: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self._lock = threading.RLock()
        self._checkpoint_dir = checkpoint_dir
        self._checkpoint_every = int(checkpoint_every)
        self._default_policy = validate_policy(default_policy)
        self._default_queue_capacity = int(default_queue_capacity)
        self._block_timeout_s = float(block_timeout_s)
        self._ledger_path = ledger_path
        self._draining = False
        self._stopped = False
        #: Hosted sessions: open, or closing but not yet evicted.
        self._sessions: Dict[str, Session] = {}
        #: Final report JSON of evicted sessions, oldest close first.
        self._closed_reports: "OrderedDict[str, str]" = OrderedDict()
        self._slots = [_Slot(i) for i in range(workers)]
        self._next_slot = 0
        self.counts: Dict[str, int] = {
            "sessions_opened": 0,
            "sessions_closed": 0,
            "worker_crashes": 0,
            "worker_restarts": 0,
            "drains": 0,
        }
        for slot in self._slots:
            self._start_worker(slot)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self._slots)

    def _start_worker(self, slot: _Slot) -> None:
        """Spawn a new incarnation for the slot (caller holds no locks or
        the service lock; sessions' epochs are bumped first)."""
        worker = Worker(
            slot=slot.index,
            epoch=slot.epoch,
            sessions_provider=lambda: self._slot_sessions(slot.index),
            on_crash=self._on_worker_crash,
            checkpoint_sink=self._persist_checkpoint,
        )
        slot.worker = worker
        worker.start()

    def _slot_sessions(self, slot_index: int) -> List[Session]:
        with self._lock:
            return list(self._slots[slot_index].sessions.values())

    def _on_worker_crash(self, worker: Worker, exc: BaseException) -> None:
        """Supervision: runs on the dying worker's thread."""
        with self._lock:
            if self._stopped:
                return
            slot = self._slots[worker.slot]
            if slot.worker is not worker or slot.epoch != worker.epoch:
                return  # an already-replaced incarnation died late
            self.counts["worker_crashes"] += 1
            if STATE.enabled:
                registry().counter("monitor.service.worker_crashes").inc()
            slot.restarts += 1
            if slot.restarts > _MAX_RESTARTS_PER_SLOT:
                print(
                    f"repro: service worker slot {slot.index} exceeded "
                    f"{_MAX_RESTARTS_PER_SLOT} restarts; giving up: {exc}",
                    file=sys.stderr,
                )
                return
            slot.epoch += 1
            # Fence: from this instant any lingering thread of the dead
            # incarnation fails the epoch check and drops its work.
            for session in slot.sessions.values():
                with session.lock:
                    session.epoch = slot.epoch
                    session.group = None
                    session.counts["restarts"] += 1
            self.counts["worker_restarts"] += 1
            if STATE.enabled:
                registry().counter("monitor.service.worker_restarts").inc()
            self._start_worker(slot)

    def kill_worker(self, slot_index: int) -> None:
        """Chaos hook: crash one worker incarnation mid-stream."""
        with self._lock:
            worker = self._slots[slot_index].worker
        if worker is not None:
            worker.kill()

    def _persist_checkpoint(
        self, session: Session, doc: Dict[str, Any]
    ) -> None:
        if self._checkpoint_dir is None:
            return
        import os

        from repro.monitor import recovery

        path = os.path.join(
            self._checkpoint_dir, f"{session.config.session_id}.ckpt.json"
        )
        os.makedirs(self._checkpoint_dir, exist_ok=True)
        try:
            recovery.write_checkpoint_text(
                path, session.checkpoint_text(doc)
            )
        except OSError as exc:
            print(
                f"repro: warning: could not write checkpoint {path}: {exc}",
                file=sys.stderr,
            )

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open_session(
        self,
        session_id: str,
        num_processes: int,
        queries: Sequence[Tuple[str, Sequence[int]]],
        lossy: bool = True,
        policy: Optional[str] = None,
        queue_capacity: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Open a session and shard it onto a worker slot."""
        config = SessionConfig(
            session_id=session_id,
            num_processes=num_processes,
            queries=queries,
            lossy=lossy,
            policy=policy if policy is not None else self._default_policy,
            queue_capacity=(
                queue_capacity
                if queue_capacity is not None
                else self._default_queue_capacity
            ),
            checkpoint_every=(
                checkpoint_every
                if checkpoint_every is not None
                else self._checkpoint_every
            ),
        )
        with self._lock:
            if self._draining:
                raise ServiceDraining("open_session")
            if (
                session_id in self._sessions
                or session_id in self._closed_reports
            ):
                raise ServiceError(f"session {session_id!r} already open")
            session = Session(config)
            slot = self._slots[self._next_slot % len(self._slots)]
            self._next_slot += 1
            session.epoch = slot.epoch
            session.slot = slot.index
            slot.sessions[session_id] = session
            self._sessions[session_id] = session
            worker = slot.worker
            self.counts["sessions_opened"] += 1
            if STATE.enabled:
                registry().counter("monitor.service.sessions_opened").inc()
        # The running incarnation adopts the session lazily (next
        # scheduling round); it only needs the wakeup hook now.
        if worker is not None:
            session.queue.set_wakeup(worker.wake)
            worker.wake()
        return {
            "session": session_id,
            "slot": slot.index,
            "epoch": session.epoch,
            "policy": config.policy,
            "queue_capacity": config.queue_capacity,
            "queries": [list(name_procs) for name_procs in config.queries],
        }

    def _get_session(self, session_id: str) -> Optional[Session]:
        """The hosted session, or None when it was closed and evicted.

        Raises:
            UnknownSession: never opened, or its report fell off the cap.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None and session_id not in self._closed_reports:
                raise UnknownSession(session_id)
        return session

    def _closed_report(self, session_id: str) -> Dict[str, Any]:
        """The final report of an evicted session."""
        with self._lock:
            text = self._closed_reports.get(session_id)
        if text is None:
            raise UnknownSession(session_id)
        return json.loads(text)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def submit(
        self, session_id: str, observations: Sequence[Any]
    ) -> Dict[str, int]:
        """Enqueue a batch of wire observations for a session.

        Returns ``{"accepted": n, "shed": m, "dead_lettered": k}``.

        Raises:
            SessionRejected: ``reject`` policy, queue full (carries the
                partial-accept count and a retry hint).
            ServiceDraining: intake is closed.
            UnknownSession: no such session.
            ServiceError: ``block`` policy stalled past the timeout, or
                the session is already finished/closed.
        """
        with self._lock:
            if self._draining:
                raise ServiceDraining("submit")
        session = self._get_session(session_id)
        if session is None:
            raise _finished(session_id)
        accepted = shed = dead = 0
        for obs in observations:
            with session.lock:
                if session.closed or session.finish_requested:
                    raise _finished(session_id)
                reason = session.validate_observation(obs)
                if reason is not None:
                    session.dead_letters.append(
                        {
                            "stage": "validate",
                            "seq": None,
                            "reason": reason,
                            "observation": _jsonable_obs(obs),
                        }
                    )
                    session.counts["dead_letters"] += 1
                    if STATE.enabled:
                        registry().counter(
                            "monitor.service.dead_letters"
                        ).inc()
                    dead += 1
                    continue
                policy = session.config.policy
                degraded = session.degrade_requested
            process, index, clock, truth = obs
            entry = {
                "kind": "obs",
                "process": process,
                "index": index,
                "clock": list(clock),
                "truth": truth,
            }
            # Enqueue OUTSIDE the session lock: the worker needs that
            # lock to drain the queue we may be waiting on.
            if policy == "block":
                ok, waited = session.queue.put_blocking(
                    entry, self._block_timeout_s
                )
                if waited:
                    with session.lock:
                        session.counts["backpressure_waits"] += 1
                    if STATE.enabled:
                        registry().counter(
                            "monitor.service.backpressure_waits"
                        ).inc()
                if not ok:
                    raise ServiceError(
                        f"session {session_id!r}: ingest blocked longer "
                        f"than {self._block_timeout_s:.1f}s"
                    )
            elif policy == "reject":
                if not session.queue.try_put(entry):
                    with session.lock:
                        session.counts["rejected"] += 1
                    if STATE.enabled:
                        registry().counter(
                            "monitor.service.rejections"
                        ).inc()
                    raise SessionRejected(
                        session_id,
                        retry_after_s=self._retry_after_s(session),
                        accepted=accepted,
                        dead_lettered=dead,
                    )
            else:  # degrade
                if not session.queue.try_put(entry):
                    if not degraded:
                        with session.lock:
                            if not session.degrade_requested:
                                session.degrade_requested = True
                                session.queue.put_control(
                                    {"kind": "degrade"}
                                )
                                if STATE.enabled:
                                    registry().counter(
                                        "monitor.service.degraded_sessions"
                                    ).inc()
                    with session.lock:
                        session.counts["shed"] += 1
                    if STATE.enabled:
                        registry().counter("monitor.service.shed").inc()
                    shed += 1
                    continue
            accepted += 1
            with session.lock:
                session.counts["ingested"] += 1
            if STATE.enabled:
                registry().counter("monitor.service.ingested").inc()
        return {"accepted": accepted, "shed": shed, "dead_lettered": dead}

    def _retry_after_s(self, session: Session) -> float:
        """Deterministic retry hint: scale with queue pressure."""
        depth = len(session.queue)
        return 0.01 + 0.002 * depth

    def finish_session(self, session_id: str) -> None:
        """Declare end-of-stream: verdicts finalize once queues settle."""
        session = self._get_session(session_id)
        if session is not None:
            _request_finish(session)

    def session_report(self, session_id: str) -> Dict[str, Any]:
        """Non-blocking snapshot of one session (final once closed)."""
        session = self._get_session(session_id)
        if session is None:
            return self._closed_report(session_id)
        return session.report()

    def _wait_settled(self, session: Session, timeout_s: float) -> None:
        """Block until the queue is empty and any finish was applied."""
        deadline = time.perf_counter() + timeout_s
        with session.lock:
            while True:
                done = len(session.queue) == 0 and (
                    not session.finish_requested or session.finished
                )
                if done:
                    return
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise ServiceError(
                        f"session {session.config.session_id!r} did not "
                        f"settle within {timeout_s:.1f}s "
                        f"(queue depth {len(session.queue)})"
                    )
                session.settled.wait(min(remaining, 0.1))

    def close_session(
        self, session_id: str, timeout_s: float = 30.0
    ) -> Dict[str, Any]:
        """Finish, settle, checkpoint, record, evict, and report one
        session; repeated closes return the same final report."""
        session = self._get_session(session_id)
        if session is None:
            return self._closed_report(session_id)
        return self._close(session, timeout_s)

    def _close(self, session: Session, timeout_s: float) -> Dict[str, Any]:
        session_id = session.config.session_id
        _request_finish(session)
        self._wait_settled(session, timeout_s)
        with session.lock:
            first_close = not session.closed
            if first_close:
                session.closed = True
                session.closed_wall_ms = (
                    time.perf_counter() - session.opened_at
                ) * 1000.0
                if session.group is not None:
                    doc = session.take_checkpoint()
                    self._persist_checkpoint(session, doc)
                session.freeze_report()
            report = session.report()
        if not first_close:
            return report
        with self._lock:
            self.counts["sessions_closed"] += 1
        if STATE.enabled:
            registry().counter("monitor.service.sessions_closed").inc()
            if session.ttd_ms is not None:
                registry().histogram(
                    "monitor.service.time_to_detection.ms"
                ).record(session.ttd_ms)
            registry().gauge("monitor.service.queue_high_water").set(
                session.queue.high_water
            )
        self._record_session_lifecycle(session, report)
        # Evict: the queue, journal, checkpoint and monitors go with the
        # last reference; the report text answers every later request.
        with self._lock:
            del self._sessions[session_id]
            del self._slots[session.slot].sessions[session_id]
            self._closed_reports[session_id] = session.final_report
            while len(self._closed_reports) > _CLOSED_REPORTS_CAP:
                self._closed_reports.popitem(last=False)
        return report

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def _record_session_lifecycle(
        self, session: Session, report: Dict[str, Any]
    ) -> None:
        """Append one ``command: "session"`` run-ledger record."""
        if self._ledger_path is None:
            return
        from repro.obs import ledger

        verdicts = report["verdicts"]
        detected = sum(1 for v in report["detected"].values() if v)
        stats: Dict[str, Any] = dict(report["counts"])
        stats["queries"] = len(verdicts)
        stats["detected_queries"] = detected
        if session.ttd_ms is not None:
            stats["ttd_ms"] = round(session.ttd_ms, 3)
        # Wall-clock timestamp is record metadata, never control flow.
        started = time.gmtime()  # repro: lint-ignore[DET102]
        record = {
            "command": "session",
            "argv": [session.config.session_id],
            "args_fingerprint": ledger.fingerprint_args(
                "session", [session.config.session_id]
            ),
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", started),
            "wall_ms": session.closed_wall_ms or 0.0,
            "cpu_ms": 0.0,
            "exit_code": 0,
            "verdict": _summary_verdict(verdicts),
            "trace": None,
            "stats": stats,
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            "spans": [],
            "extra": {
                "session": session.config.session_id,
                "policy": session.config.policy,
                "degraded": report["degraded"],
                "epoch": report["epoch"],
                "verdicts": verdicts,
            },
        }
        try:
            ledger.append_record(self._ledger_path, record)
        except OSError as exc:
            registry().counter("runs.write_errors").inc()
            print(
                f"repro: warning: could not append session record to "
                f"{self._ledger_path}: {exc}",
                file=sys.stderr,
            )

    # ------------------------------------------------------------------
    # Introspection / drain
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Service-level counters and per-slot health."""
        with self._lock:
            slots = [
                {
                    "slot": slot.index,
                    "epoch": slot.epoch,
                    "restarts": slot.restarts,
                    "sessions": len(slot.sessions),
                    "alive": bool(slot.worker and slot.worker.is_alive()),
                }
                for slot in self._slots
            ]
            open_sessions = sum(
                1 for s in self._sessions.values() if not s.closed
            )
            return {
                "workers": len(self._slots),
                "draining": self._draining,
                "sessions": len(self._sessions),
                "open_sessions": open_sessions,
                "closed_reports": len(self._closed_reports),
                "counts": dict(self.counts),
                "slots": slots,
            }

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def drain(self, timeout_s: float = 30.0) -> Dict[str, Any]:
        """Graceful shutdown: stop intake, settle, flush, stop workers.

        Returns a summary: sessions closed, final verdict counts.
        """
        with self._lock:
            if self._draining:
                raise ServiceError("service is already draining")
            self._draining = True
            self.counts["drains"] += 1
            sessions = [self._sessions[sid] for sid in sorted(self._sessions)]
        if STATE.enabled:
            registry().counter("monitor.service.drains").inc()
        closed = 0
        verdict_tally: Dict[str, int] = {}
        for session in sessions:
            if session.closed:
                continue  # closed concurrently; its closer reports it
            report = self._close(session, timeout_s)
            closed += 1
            for verdict in report["verdicts"].values():
                verdict_tally[verdict] = verdict_tally.get(verdict, 0) + 1
        with self._lock:
            self._stopped = True
            workers = [slot.worker for slot in self._slots]
        for worker in workers:
            if worker is not None:
                worker.stop()
        for worker in workers:
            if worker is not None:
                worker.join()
        return {
            "sessions_closed": closed,
            "verdicts": {k: verdict_tally[k] for k in sorted(verdict_tally)},
            "counts": dict(self.counts),
        }

    def shutdown(self, timeout_s: float = 30.0) -> Optional[Dict[str, Any]]:
        """Drain if not already drained; always stop the worker pool."""
        try:
            return self.drain(timeout_s=timeout_s)
        except ServiceError:
            with self._lock:
                self._stopped = True
                workers = [slot.worker for slot in self._slots]
            for worker in workers:
                if worker is not None:
                    worker.stop()
                    worker.join()
            return None


def _request_finish(session: Session) -> None:
    with session.lock:
        if not session.finish_requested:
            session.finish_requested = True
            session.queue.put_control({"kind": "finish"})


def _finished(session_id: str) -> ServiceError:
    return ServiceError(
        f"session {session_id!r} is finished; no further observations"
    )


def _jsonable_obs(obs: Any) -> Any:
    try:
        json.dumps(obs)
        return obs
    except (TypeError, ValueError):
        return repr(obs)


def _summary_verdict(verdicts: Dict[str, str]) -> str:
    """One word for the ledger: the session's strongest outcome."""
    ranking = (
        "detected",
        "detected_despite_gaps",
        "impossible",
        "inconclusive",
        "undecided",
    )
    present = set(verdicts.values())
    for verdict in ranking:
        if verdict in present:
            return verdict
    return "empty"
