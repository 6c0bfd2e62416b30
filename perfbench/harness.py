"""Measurement helpers shared by the workloads: spans, percentiles, memory,
garbage-collector pauses and the independent witness check.

Nothing here imports :mod:`repro`; the check in :func:`witness_problem`
reads only the vector clocks and variable values a computation exposes,
so it does not share code with the detection engines it referees.
"""

from __future__ import annotations

import gc
import math
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: Layers of the program, named after its modules.  A span belongs to the
#: longest layer its name starts with; spans of no layer are the
#: benchmark's own client code (compiling lambdas, building payloads).
LAYERS = (
    "trace",
    "computation",
    "perf",
    "predicates",
    "analysis.classify",
    "detection",
    "monitor",
    "service",
)


def layer_of(name: str) -> str:
    for layer in sorted(LAYERS, key=len, reverse=True):
        if name == layer or name.startswith(layer + "."):
            return layer
    return "client"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: at least ``(1 - q) * n`` values lie above
    the value returned, so p90 of 100 samples leaves 10 beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def quarter_medians(values: Sequence[float]) -> tuple:
    """Median of the first and of the last quarter of a run's latencies —
    the growth between them is what per-request retention costs."""
    quarter = max(1, len(values) // 4)
    return statistics.median(values[:quarter]), statistics.median(
        values[-quarter:]
    )


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _status_kb(pid: Optional[int], field: str) -> float:
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"{field} not found in {path}")


def rss_mb(pid: Optional[int] = None) -> float:
    """Current resident set size of ``pid`` (default: this process)."""
    return _status_kb(pid, "VmRSS") / 1024.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size of ``pid`` (default: this process)."""
    return _status_kb(pid, "VmHWM") / 1024.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """Benchmark-side spans around the calls into each layer.

    Spans live in memory as dicts (name, start, end, parent, request id)
    and are written out once, when the run ends.  A span opened with
    ``replayed=True`` re-runs, after the request has ended, work that the
    request did inside its parent span; it is attributed to its own layer
    and subtracted from the parent's self time, but it does not count
    towards the request's wall time.  A replayed span without a parent is
    a baseline timed beside the request and belongs to no layer share.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.request_id: Optional[int] = None
        self._in_request = False
        self.last_request_ms = 0.0
        self.gc_pause_ms = 0.0
        self._gc_started: Optional[float] = None

    @contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, replayed: bool = False
    ) -> Iterator[int]:
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {
            "id": len(self.spans),
            "name": name,
            "request": self.request_id,
            "parent": parent,
            "replayed": replayed,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["id"]
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    @contextmanager
    def request(self, request_id: int) -> Iterator[int]:
        """The root span of one request.  Its id stays current afterwards,
        so replayed spans that follow belong to the same request."""
        self.request_id = request_id
        with self.span("request") as sid:
            self._in_request = True
            try:
                yield sid
            finally:
                self._in_request = False
        root = self.spans[sid]
        self.last_request_ms = (root["end"] - root["start"]) * 1000.0

    # Gen-2 collections that start while a request is open.
    def on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_started = perf_counter() if self._in_request else None
        elif self._gc_started is not None:
            self.gc_pause_ms += (perf_counter() - self._gc_started) * 1000.0
            self._gc_started = None

    @contextmanager
    def gc_watch(self) -> Iterator[None]:
        gc.callbacks.append(self.on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self.on_gc)

    # ------------------------------------------------------------------
    def per_request(self) -> Dict[int, Dict[str, Any]]:
        """Per traced request: wall ms, and per-layer self ms and calls."""
        children: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        out: Dict[int, Dict[str, Any]] = {}
        for s in self.spans:
            rid = s["request"]
            entry = out.setdefault(rid, {"wall_ms": 0.0, "self_ms": {}, "calls": {}})
            dur = (s["end"] - s["start"]) * 1000.0
            self_ms = dur - children.get(s["id"], 0.0) * 1000.0
            if s["name"] == "request":
                entry["wall_ms"] = dur
                layer = "client"
            else:
                layer = layer_of(s["name"])
                entry["calls"][s["name"]] = entry["calls"].get(s["name"], 0) + 1
                if s["replayed"] and s["parent"] is None:
                    continue
            entry["self_ms"][layer] = entry["self_ms"].get(layer, 0.0) + self_ms
        return out


# ----------------------------------------------------------------------
# Independent witness check
# ----------------------------------------------------------------------
def witness_problem(
    computation: Any,
    frontier: Sequence[int],
    clauses: Sequence[Sequence[int]],
    variable: str = "x",
) -> Optional[str]:
    """Why ``frontier`` is not a consistent cut satisfying the CNF whose
    clauses list the processes of ``variable@p`` literals, or None.

    A frontier counts events per process (the initial event included).
    The cut is consistent iff no event inside it depends on an event
    outside: the clock of each process's last included event may not
    count more events of any process than the cut includes.
    """
    n = computation.num_processes
    if len(frontier) != n:
        return f"frontier has {len(frontier)} entries for {n} processes"
    for q in range(n):
        if not 1 <= frontier[q] <= len(computation.events_of(q)):
            return f"frontier[{q}]={frontier[q]} is out of range"
    for q in range(n):
        clock = computation.clock((q, frontier[q] - 1)).components
        for p in range(n):
            if clock[p] > frontier[p]:
                return (
                    f"inconsistent: ({q},{frontier[q] - 1}) needs "
                    f"{clock[p]} events of {p}"
                )
    for clause in clauses:
        if not any(
            computation.events_of(p)[frontier[p] - 1].values.get(variable)
            for p in clause
        ):
            return f"clause over processes {list(clause)} is false at the cut"
    return None
