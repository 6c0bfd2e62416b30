"""Live progress telemetry: heartbeats and deadlines for long loops.

Detecting ``possibly(B)`` is NP-complete in general, so a detection run
can legitimately take minutes — or forever, from the caller's point of
view.  This module threads a *rate-limited heartbeat* through the long
loops (combination searches, Cooper–Marzullo BFS, lattice enumeration,
fuzz iterations) without touching their disabled-path cost profile:

* :func:`tracker` returns a shared no-op object unless a
  :class:`ProgressContext` is active, so an un-instrumented run pays one
  attribute check per loop entry (the same contract as ``obs.span``);
* an active tracker batches its bookkeeping (``check_every`` steps per
  clock read) and rate-limits sink emissions, so even per-cut ticking in
  a million-cut BFS stays cheap;
* progress events are **monotonic**: ``done`` never decreases within a
  tracker, and every event carries units done/total, elapsed seconds and
  an ETA estimate when a total is known;
* an optional **deadline** converts a blown budget into a clean
  :class:`DeadlineExceeded` (caught by the CLI and turned into an
  ``inconclusive`` verdict, exit code 7) instead of a hang.

Activation is scoped::

    with progress_context(sink=print_event, deadline_ms=5000):
        detect(computation, predicate)     # long loops now tick

The context is installed process-globally (mirroring ``obs.STATE``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator, Optional

from repro.obs.config import STATE
from repro.obs.metrics import registry

__all__ = [
    "DeadlineExceeded",
    "NOOP_TRACKER",
    "PROGRESS",
    "ProgressContext",
    "ProgressEvent",
    "Tracker",
    "format_event",
    "progress_context",
    "stderr_sink",
    "tracker",
]


class DeadlineExceeded(Exception):
    """A progress deadline fired inside an instrumented loop.

    Carries enough of the loop's state for the caller to report a
    partial/inconclusive result: which loop blew the budget, how many
    units it had completed, the (optional) total, and the elapsed time.
    """

    def __init__(
        self,
        name: str,
        done: int,
        total: Optional[int],
        elapsed_ms: float,
        deadline_ms: float,
    ) -> None:
        self.name = name
        self.done = done
        self.total = total
        self.elapsed_ms = elapsed_ms
        self.deadline_ms = deadline_ms
        super().__init__(
            f"deadline of {deadline_ms:.0f} ms exceeded in {name} "
            f"after {done} unit(s)"
        )


@dataclass(frozen=True)
class ProgressEvent:
    """One heartbeat from an instrumented loop."""

    name: str  #: loop identifier, e.g. ``detect.cuts``
    done: int  #: units completed so far (monotonic per tracker)
    total: Optional[int]  #: known unit total, or None for open-ended loops
    elapsed_s: float  #: seconds since the progress context was entered
    eta_s: Optional[float]  #: estimated seconds remaining, when computable


def format_event(event: ProgressEvent) -> str:
    """The one-line rendering the CLI prints per tick."""
    if event.total:
        pct = 100.0 * event.done / event.total
        line = f"progress: {event.name} {event.done}/{event.total} ({pct:.1f}%)"
    else:
        line = f"progress: {event.name} {event.done}"
    line += f" elapsed={event.elapsed_s:.1f}s"
    if event.eta_s is not None:
        line += f" eta={event.eta_s:.1f}s"
    return line


def stderr_sink(event: ProgressEvent) -> None:
    """Default CLI sink: one ``progress:`` line per tick on stderr."""
    import sys

    print(format_event(event), file=sys.stderr, flush=True)


class _NoopTracker:
    """Shared do-nothing tracker used when no context is active."""

    __slots__ = ()

    def step(self, n: int = 1) -> None:
        pass

    def finish(self) -> None:
        pass


NOOP_TRACKER = _NoopTracker()


class Tracker:
    """Progress bookkeeping for one loop under an active context.

    ``step(n)`` is the only hot call: it adds to a countdown and only
    touches the clock every ``check_every`` units, keeping per-iteration
    cost at two integer ops for heavily ticked loops.
    """

    __slots__ = ("_ctx", "name", "total", "done", "_countdown",
                 "_check_every", "_last_emit")

    def __init__(
        self,
        ctx: "ProgressContext",
        name: str,
        total: Optional[int],
        check_every: int,
    ) -> None:
        self._ctx = ctx
        self.name = name
        self.total = total
        self.done = 0
        self._check_every = max(1, check_every)
        self._countdown = self._check_every
        # Rate-limit epoch starts *now*: perf_counter() is an arbitrary
        # origin (host uptime on Linux), so seeding with 0.0 would make
        # the first tick bypass the interval on any long-lived host.
        self._last_emit = perf_counter()

    def step(self, n: int = 1) -> None:
        """Advance by ``n`` units; may emit a tick or raise at a deadline.

        Raises:
            DeadlineExceeded: When the context's deadline has passed.
        """
        self.done += n
        self._countdown -= n
        if self._countdown <= 0:
            self._countdown = self._check_every
            self._checkpoint()

    def finish(self) -> None:
        """Emit one final event (ignoring the rate limit), if sinking."""
        if self._ctx.sink is not None:
            self._ctx.emit(self, perf_counter(), force=True)

    def _checkpoint(self) -> None:
        now = perf_counter()
        self._ctx.check_deadline(self, now)
        if self._ctx.sink is not None:
            self._ctx.emit(self, now)


class ProgressContext:
    """One active progress session: sink, pacing, and deadline."""

    def __init__(
        self,
        sink: Optional[Callable[[ProgressEvent], None]] = None,
        deadline_ms: Optional[float] = None,
        interval_s: float = 0.25,
    ) -> None:
        self.sink = sink
        self.interval_s = interval_s
        self.started = perf_counter()
        self.deadline: Optional[float] = (
            self.started + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        self._deadline_ms = deadline_ms

    def tracker(
        self, name: str, total: Optional[int] = None, check_every: int = 1
    ) -> Tracker:
        return Tracker(self, name, total, check_every)

    def check_deadline(self, trk: Tracker, now: float) -> None:
        if self.deadline is not None and now >= self.deadline:
            if STATE.enabled:
                registry().counter("progress.deadline_hits").inc()
            assert self._deadline_ms is not None
            raise DeadlineExceeded(
                name=trk.name,
                done=trk.done,
                total=trk.total,
                elapsed_ms=(now - self.started) * 1000.0,
                deadline_ms=self._deadline_ms,
            )

    def emit(self, trk: Tracker, now: float, force: bool = False) -> None:
        if not force and now - trk._last_emit < self.interval_s:
            return
        trk._last_emit = now
        elapsed = now - self.started
        eta: Optional[float] = None
        if trk.total and trk.done and trk.done < trk.total:
            eta = elapsed / trk.done * (trk.total - trk.done)
        if STATE.enabled:
            registry().counter("progress.ticks").inc()
        assert self.sink is not None
        self.sink(
            ProgressEvent(
                name=trk.name,
                done=trk.done,
                total=trk.total,
                elapsed_s=elapsed,
                eta_s=eta,
            )
        )


class _ProgressState:
    """Mutable singleton holding the active context (or None).

    Mirrors ``repro.obs.config.STATE``: call sites bind ``PROGRESS`` at
    import time and pay one attribute read per loop entry when inactive.
    """

    __slots__ = ("active",)

    def __init__(self) -> None:
        self.active: Optional[ProgressContext] = None


PROGRESS = _ProgressState()


def tracker(name: str, total: Optional[int] = None, check_every: int = 1):
    """A progress tracker for one loop; shared no-op when inactive.

    ``check_every`` bounds how often the tracker reads the clock: pass a
    larger value for very hot loops (per-cut BFS ticks) and leave it at 1
    when each unit is already substantial (one CPDHB scan).
    """
    ctx = PROGRESS.active
    if ctx is None:
        return NOOP_TRACKER
    return ctx.tracker(name, total, check_every)


@contextmanager
def progress_context(
    sink: Optional[Callable[[ProgressEvent], None]] = None,
    deadline_ms: Optional[float] = None,
    interval_s: float = 0.25,
) -> Iterator[ProgressContext]:
    """Install a progress context for the duration of the block.

    Non-reentrant in spirit (the innermost context wins) but safe to
    nest: the previous context is restored on exit.
    """
    prev = PROGRESS.active
    ctx = ProgressContext(
        sink=sink, deadline_ms=deadline_ms, interval_s=interval_s
    )
    PROGRESS.active = ctx
    try:
        yield ctx
    finally:
        PROGRESS.active = prev
