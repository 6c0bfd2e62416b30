"""One monitored computation hosted by the service: config, journal, state.

A *session* is the unit of tenancy.  The supervisor owns the session
object (queue, journal, checkpoint, counters, dead letters); the current
worker incarnation owns the **live** :class:`~repro.monitor.multiplex.MonitorGroup`
it rebuilt from ``checkpoint + journal``.  All mutation happens under
``session.lock`` with an **epoch fence**: the worker checks that its
epoch is still the session's current epoch before every dequeue/apply,
so a zombie incarnation (declared dead by the supervisor while a thread
of it still runs) can never journal or apply a stale observation.

Restart invariant (chaos-harness proof obligation): the journal records
every entry *before* it is applied, and applying entries is
deterministic, so for any crash point::

    restore_group(checkpoint) ⊕ replay(journal)  ==  uninterrupted run

— verdicts and witnesses included.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.events import VectorClock
from repro.monitor import MonitorError, MonitorGroup, recovery
from repro.service.backpressure import BoundedQueue, validate_policy

__all__ = [
    "SERVICE_SESSION_STATE_FORMAT",
    "Session",
    "SessionConfig",
    "observation_stream",
    "session_id_ok",
]

SERVICE_SESSION_STATE_FORMAT = "repro-service-session-v1"

#: Characters allowed in a session id (doubles as a checkpoint filename).
_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def session_id_ok(session_id: str) -> bool:
    """Is the id non-empty, filesystem-safe, and of sane length?"""
    return (
        0 < len(session_id) <= 128
        and not session_id.startswith(".")
        and all(c in _ID_CHARS for c in session_id)
    )


class SessionConfig:
    """Immutable per-session settings, fixed at ``open``.

    Args:
        session_id: Unique id (also the checkpoint filename stem).
        num_processes: Clock dimension of the monitored computation.
        queries: ``(name, processes)`` pairs, one conjunctive monitor
            each; stored sorted by name so group construction (and thus
            checkpoint bytes) never depend on submission order.
        lossy: Create the monitors in lossy-stream mode.
        policy: Backpressure policy (``block``/``reject``/``degrade``).
        queue_capacity: Bound of the ingest queue (data entries).
        checkpoint_every: Journal entries between periodic checkpoints.
    """

    __slots__ = (
        "session_id",
        "num_processes",
        "queries",
        "lossy",
        "policy",
        "queue_capacity",
        "checkpoint_every",
    )

    def __init__(
        self,
        session_id: str,
        num_processes: int,
        queries: Sequence[Tuple[str, Sequence[int]]],
        lossy: bool = True,
        policy: str = "block",
        queue_capacity: int = 256,
        checkpoint_every: int = 64,
    ) -> None:
        if not session_id_ok(session_id):
            raise ValueError(
                f"bad session id {session_id!r}: use 1-128 chars from "
                "[A-Za-z0-9._-], not starting with '.'"
            )
        if num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if not queries:
            raise ValueError("a session needs at least one query")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.session_id = session_id
        self.num_processes = int(num_processes)
        self.queries: Tuple[Tuple[str, Tuple[int, ...]], ...] = tuple(
            sorted((str(name), tuple(int(p) for p in procs))
                   for name, procs in queries)
        )
        names = [name for name, _ in self.queries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate query names")
        self.lossy = bool(lossy)
        self.policy = validate_policy(policy)
        self.queue_capacity = int(queue_capacity)
        self.checkpoint_every = int(checkpoint_every)

    def build_group(self) -> MonitorGroup:
        """A fresh :class:`MonitorGroup` matching this config."""
        group = MonitorGroup(self.num_processes, lossy=self.lossy)
        for name, procs in self.queries:
            group.add(name, list(procs))
        return group


class Session:
    """Mutable state of one hosted session (lock-protected)."""

    def __init__(self, config: SessionConfig) -> None:
        self.config = config
        self.lock = threading.RLock()
        #: Signalled whenever the queue may have settled (emptied) or a
        #: control entry was applied; close/drain wait on it.
        self.settled = threading.Condition(self.lock)
        self.queue = BoundedQueue(config.queue_capacity)
        #: Worker slot hosting the session (set by the supervisor).
        self.slot = 0
        #: Worker incarnation allowed to apply entries.
        self.epoch = 0
        #: Entries journaled since the last checkpoint, in apply order.
        self.journal: List[Dict[str, Any]] = []
        #: Total entries ever journaled (monotone; checkpoint high-water).
        self.seq = 0
        #: Journal position folded into :attr:`checkpoint`.
        self.checkpoint_seq = 0
        #: Last service checkpoint document (JSON-safe), or None.
        self.checkpoint: Optional[Dict[str, Any]] = None
        #: The live monitor group of the current incarnation (worker-built).
        self.group: Optional[MonitorGroup] = None
        #: ``degrade`` policy: control entry enqueued (supervisor side).
        self.degrade_requested = False
        #: ``degrade`` control entry applied (monitors are lossy now).
        self.degraded = False
        #: ``finish`` control entry enqueued / applied.
        self.finish_requested = False
        self.finished = False
        self.closed = False
        #: The report at close, as JSON text; every later report is it.
        self.final_report: Optional[str] = None
        self.counts: Dict[str, int] = {
            "ingested": 0,
            "applied": 0,
            "shed": 0,
            "rejected": 0,
            "backpressure_waits": 0,
            "dead_letters": 0,
            "stale_epoch_drops": 0,
            "checkpoints": 0,
            "journal_replayed": 0,
            "restarts": 0,
        }
        #: Quarantined poison observations: ``stage`` is ``"validate"``
        #: (structurally invalid, never journaled) or ``"apply"``
        #: (journaled entry the monitor refused; rebuilt on replay).
        self.dead_letters: List[Dict[str, Any]] = []
        self.opened_at = perf_counter()
        self.closed_wall_ms: Optional[float] = None
        #: Wall ms from open to the first detection of any query.
        self.ttd_ms: Optional[float] = None

    # ------------------------------------------------------------------
    # Validation (pre-journal; structural poison goes to the dead letter
    # queue here and never reaches the journal or the monitors)
    # ------------------------------------------------------------------
    def validate_observation(self, obs: Any) -> Optional[str]:
        """Why this wire observation is poison, or None when well-formed."""
        n = self.config.num_processes
        if not isinstance(obs, (list, tuple)) or len(obs) != 4:
            return "observation must be [process, index, clock, truth]"
        process, index, clock, truth = obs
        if not isinstance(process, int) or isinstance(process, bool):
            return "process must be an integer"
        if not 0 <= process < n:
            return f"process {process} out of range [0, {n})"
        if not isinstance(index, int) or isinstance(index, bool):
            return "index must be an integer"
        if index < 0:
            return "index must be >= 0"
        if not isinstance(clock, (list, tuple)) or len(clock) != n:
            return f"clock must be a length-{n} integer vector"
        for component in clock:
            if not isinstance(component, int) or isinstance(component, bool):
                return "clock components must be integers"
            if component < 0:
                return "clock components must be >= 0"
        if not isinstance(truth, bool):
            return "truth must be a boolean"
        return None

    # ------------------------------------------------------------------
    # Journal application (caller holds ``lock``)
    # ------------------------------------------------------------------
    def apply_entry(
        self, entry: Dict[str, Any], seq: int, replay: bool
    ) -> List[str]:
        """Apply one journal entry to the live group; returns fired names.

        Deterministic in ``(group state, entry)``: a replayed journal
        reproduces the exact monitor state *and* dead-letter decisions
        of the interrupted incarnation.
        """
        group = self.group
        assert group is not None
        kind = entry["kind"]
        if kind == "degrade":
            group.degrade_to_lossy()
            self.degraded = True
            return []
        if kind == "finish":
            group.finish_all()
            self.finished = True
            return []
        try:
            fired = group.observe(
                entry["process"],
                entry["index"],
                VectorClock(entry["clock"]),
                entry["truth"],
            )
        except MonitorError as exc:
            # A well-formed observation the monitors refuse (e.g. out of
            # order on a strict session).  Isolate it to this session's
            # dead letters; the journal keeps the entry so a replay makes
            # the same decision.
            self.dead_letters.append(
                {
                    "stage": "apply",
                    "seq": seq,
                    "reason": str(exc),
                    "observation": [
                        entry["process"],
                        entry["index"],
                        list(entry["clock"]),
                        entry["truth"],
                    ],
                }
            )
            if not replay:
                self.counts["dead_letters"] += 1
            return []
        if not replay:
            self.counts["applied"] += 1
        if fired and self.ttd_ms is None:
            self.ttd_ms = (perf_counter() - self.opened_at) * 1000.0
        return fired

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def make_checkpoint(self) -> Dict[str, Any]:
        """Service checkpoint doc for the current live state (hold lock)."""
        assert self.group is not None
        return {
            "format": SERVICE_SESSION_STATE_FORMAT,
            "session": self.config.session_id,
            "epoch": self.epoch,
            "seq": self.seq,
            "degraded": self.degraded,
            "finished": self.finished,
            "group": recovery.checkpoint_group(self.group),
            "dead_letters": [
                dict(entry)
                for entry in self.dead_letters
                if entry["stage"] == "apply"
            ],
        }

    def take_checkpoint(self) -> Dict[str, Any]:
        """Fold the journal into a fresh checkpoint (hold lock)."""
        doc = self.make_checkpoint()
        self.checkpoint = doc
        self.checkpoint_seq = self.seq
        self.journal = []
        self.counts["checkpoints"] += 1
        return doc

    def checkpoint_text(self, doc: Dict[str, Any]) -> str:
        """Byte-stable JSON rendering of a checkpoint document."""
        return json.dumps(doc, indent=2, sort_keys=True)

    def restore_live_group(self) -> int:
        """Rebuild the live group from checkpoint + journal (hold lock).

        Returns the number of journal entries replayed.  Dead letters
        recorded at the apply stage after the checkpoint are dropped
        first — the replay recreates them deterministically.
        """
        if self.checkpoint is not None:
            self.group = recovery.restore_group(self.checkpoint["group"])
            self.degraded = bool(self.checkpoint["degraded"])
            self.finished = bool(self.checkpoint["finished"])
            self.dead_letters = [
                dict(entry) for entry in self.checkpoint["dead_letters"]
            ] + [
                entry
                for entry in self.dead_letters
                if entry["stage"] == "validate"
            ]
        else:
            self.group = self.config.build_group()
            self.degraded = False
            self.finished = False
            self.dead_letters = [
                entry
                for entry in self.dead_letters
                if entry["stage"] == "validate"
            ]
        seq = self.checkpoint_seq
        for entry in self.journal:
            seq += 1
            self.apply_entry(entry, seq=seq, replay=True)
        replayed = len(self.journal)
        self.counts["journal_replayed"] += replayed
        return replayed

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def freeze_report(self) -> None:
        """Make the current report final (hold lock; at close)."""
        self.final_report = json.dumps(self.report())

    def report(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the session's verdicts and health."""
        with self.lock:
            if self.final_report is not None:
                return json.loads(self.final_report)
            group = self.group
            verdicts: Dict[str, str] = {}
            detected: Dict[str, bool] = {}
            witnesses: Dict[str, Dict[str, List[Any]]] = {}
            gaps: Dict[str, Dict[str, List[List[int]]]] = {}
            if group is not None:
                verdicts = group.detailed_verdicts()
                detected = group.verdicts()
                for name, witness in group.witnesses().items():
                    witnesses[name] = {
                        str(p): [index, list(clock)]
                        for p, (index, clock) in sorted(witness.items())
                    }
                for name in verdicts:
                    monitor = group[name]
                    if monitor.had_gaps:
                        gaps[name] = {
                            str(p): [list(span) for span in spans]
                            for p, spans in sorted(monitor.gaps.items())
                            if spans
                        }
            return {
                "session": self.config.session_id,
                "policy": self.config.policy,
                "lossy": self.config.lossy or self.degraded,
                "degraded": self.degraded,
                "finished": self.finished,
                "closed": self.closed,
                "epoch": self.epoch,
                "queue_depth": len(self.queue),
                "queue_high_water": self.queue.high_water,
                "verdicts": verdicts,
                "detected": detected,
                "witnesses": witnesses,
                "gaps": gaps,
                "dead_letters": [dict(entry) for entry in self.dead_letters],
                "counts": dict(self.counts),
                "ttd_ms": self.ttd_ms,
            }


# ----------------------------------------------------------------------
# Stream extraction (shared by ``repro feed``, chaos, and benchmarks)
# ----------------------------------------------------------------------
def observation_stream(comp, monitored, variable: str = "x"):
    """The wire-format ``[process, index, clock, truth]`` stream of a
    computation.

    Initial events first (index 0 per monitored process), then one entry
    per event of a linearization — the order a well-behaved reporter
    would deliver.  Clocks are plain lists, ready for JSON transport.
    """
    from repro.computation import some_linearization

    wanted = sorted(set(monitored))
    stream = []
    for p in wanted:
        ev = comp.initial_event(p)
        stream.append(
            [
                p,
                0,
                [int(c) for c in comp.clock(ev.event_id).components],
                bool(ev.value(variable, False)),
            ]
        )
    members = set(wanted)
    for eid in some_linearization(comp):
        p, index = eid
        if p not in members:
            continue
        ev = comp.event(eid)
        stream.append(
            [
                p,
                index,
                [int(c) for c in comp.clock(eid).components],
                bool(ev.value(variable, False)),
            ]
        )
    return stream
