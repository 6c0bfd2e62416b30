"""The four workloads.  Each loads one layer of the program and leaves the
others nearly idle, so a change to one layer shows on one workload and is
predicted flat on the rest (see README.md for the prediction table).

A workload generates its inputs from the seed in :meth:`setup`, computes
an independent reference answer for every input there, and warms up.
:meth:`run` serves one request through public ``repro`` calls and returns
what a user would get back; :meth:`check` compares that with the
reference outside the timed region.  With a tracer, :meth:`run` also
records a span around each call into a layer.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import random
import select
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from harness import Tracer, witness_problem


class _Null:
    """Stands in for a tracer on untraced requests."""

    def span(self, *args: Any, **kwargs: Any) -> "_Null":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


NULL = _Null()


def _seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def _frontier_problem(got: Any, want: Optional[Sequence[int]]) -> Optional[str]:
    if got != want:
        return f"witness {got} differs from the reference {want}"
    return None


class Workload:
    #: Requests served per second of ``--seconds``; a run serves a fixed
    #: count (at least 100, so its p90 has 10 samples beyond it).
    rate = 10.0
    #: Inputs cycled through; a traced run alternates blocks of this many
    #: untraced and traced requests, so both halves see every input.
    inputs = 8
    #: A request slower than this counts as failed.
    time_limit_s = 5.0

    #: Process whose memory the run reports (None: this one).
    server_pid: Optional[int] = None
    #: Counters the program emitted outside this process, if any.
    counters: Dict[str, float] = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, i: int, tracer: Any = NULL) -> Any:
        raise NotImplementedError

    def check(self, i: int, outcome: Any) -> Optional[str]:
        raise NotImplementedError

    def work(self, i: int) -> float:
        """Work request ``i`` completes: what throughput counts per second
        (trace events, queries or observations)."""
        return 1.0

    def replay(self, i: int, outcome: Any, tracer: Tracer) -> None:
        """Traced runs only: per-layer work timed after the request."""

    def layer_stats(self) -> Dict[str, float]:
        """Traced runs only: per-layer values the spans do not give."""
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class Ingest4k(Workload):
    """The one-shot ``repro detect TRACE PRED`` path, in process.

    Chosen because trace parsing, vector clocks and the causality index
    are ~95% of each request, with cheap conjunctive predicates: 4,096
    events keep the per-event costs that dominate at 32k events while
    fitting 100 requests in seconds.  The index cache retains every
    loaded computation, so memory and gen-2 pauses grow over the run.
    """

    name = "ingest-4k"
    # 100 requests: each retains ~3.7 MB in the index cache (see README).
    rate = 5.0
    processes, events = 16, 256

    def setup(self) -> None:
        from repro.detection import detect
        from repro.predicates.parser import parse_predicate
        from repro.trace import (
            BoolVar,
            dump_computation,
            load_computation,
            random_computation,
        )

        self.paths: List[str] = []
        self.predicates: List[str] = []
        self.clauses: List[List[List[int]]] = []
        self.refs: List[Any] = []
        rng = random.Random(self.seed)
        for k, s in enumerate(_seeds(self.seed, self.inputs)):
            comp = random_computation(
                self.processes,
                self.events - 1,
                message_density=0.3,
                seed=s,
                variables=[BoolVar("x", density=0.3)],
            )
            path = self.workdir / f"trace-{k}.json"
            dump_computation(comp, str(path))
            self.paths.append(str(path))
            procs = sorted(rng.sample(range(self.processes), 4))
            self.predicates.append(" & ".join(f"x@{p}" for p in procs))
            self.clauses.append([[p] for p in procs])
        for k, path in enumerate(self.paths):
            comp = load_computation(path)
            ref = detect(
                comp,
                parse_predicate(self.predicates[k], num_processes=self.processes),
                engine="work-optimal",
            )
            self.refs.append(
                list(ref.witness.frontier) if ref.holds else None
            )
        for k in range(2):
            self.run(k)

    def run(self, i: int, tracer: Any = NULL) -> Any:
        from repro.detection import detect
        from repro.predicates.parser import parse_predicate
        from repro.trace import load_computation

        path = self.paths[i % self.inputs]
        text = self.predicates[i % self.inputs]
        if tracer is NULL:
            computation = load_computation(path)
        else:
            computation = self._traced_load(path, tracer)
        with tracer.span("predicates.parse"):
            predicate = parse_predicate(
                text, num_processes=computation.num_processes
            )
        with tracer.span("detection.detect"):
            result = detect(computation, predicate)
        # The payload `repro detect` prints.
        payload = {
            "predicate": predicate.description(),
            "modality": "possibly",
            "holds": result.holds,
            "algorithm": result.algorithm,
            "stats": result.stats,
            "witness_frontier": (
                list(result.witness.frontier) if result.witness else None
            ),
        }
        return computation, json.dumps(payload, default=str)

    def _traced_load(self, path: str, tracer: Tracer) -> Any:
        """``load_computation`` split at its layer boundaries."""
        from repro.perf.causality import CausalityIndex
        from repro.trace import computation_from_dict

        with tracer.span("trace.read"):
            data = json.loads(Path(path).read_text())
        with tracer.span("trace.decode") as decode:
            computation = computation_from_dict(data, source=path)
        self._decode_span = decode
        with tracer.span("perf.index"):
            index = CausalityIndex.of(computation)
        with tracer.span("perf.matrix"):
            index.matrix
        return computation

    def replay(self, i: int, outcome: Any, tracer: Tracer) -> None:
        from repro.computation import Computation

        computation = outcome[0]
        events = [
            list(computation.events_of(p))
            for p in range(computation.num_processes)
        ]
        # `trace.decode` built this computation; re-running the build alone
        # separates validation + vector clocks from JSON decoding.
        with tracer.span(
            "computation.build", parent=self._decode_span, replayed=True
        ):
            Computation(events, list(computation.messages))

    def check(self, i: int, outcome: Any) -> Optional[str]:
        computation, text = outcome
        payload = json.loads(text)
        ref = self.refs[i % self.inputs]
        if payload["holds"] != (ref is not None):
            return f"verdict {payload['holds']} differs from the reference"
        if ref is None:
            return None
        return _frontier_problem(
            payload["witness_frontier"], ref
        ) or witness_problem(
            computation, payload["witness_frontier"], self.clauses[i % self.inputs]
        )

    def work(self, i: int) -> float:
        return float(self.processes * self.events)

    def layer_stats(self) -> Dict[str, float]:
        sizes = [Path(p).stat().st_size for p in self.paths]
        return {
            "trace.events": float(self.processes * self.events),
            "trace.bytes": sum(sizes) / len(sizes),
        }


# ----------------------------------------------------------------------
class KcnfSweep(Workload):
    """``possibly`` of the paper's singular k-CNF, one clause per group.

    Chosen because the combination sweep and the clock-matrix kernels do
    nearly all the work and ingest does none: inputs are loaded and
    index-warmed in setup, and a request is one ``detect``.
    """

    name = "kcnf-sweep"
    rate = 32.0
    # The sweep's cost varies several-fold between seeded computations of
    # one shape; 64 of them keep a run's median steady across seeds.
    inputs = 64
    groups, group_size, events = 8, 3, 40

    def setup(self) -> None:
        from repro.detection.singular_cnf import detect_singular
        from repro.perf.causality import CausalityIndex
        from repro.predicates.parser import parse_predicate
        from repro.trace import BoolVar, grouped_computation

        n = self.groups * self.group_size
        self.clauses = [
            [g * self.group_size + k for k in range(self.group_size)]
            for g in range(self.groups)
        ]
        text = " & ".join(
            "(" + " | ".join(f"x@{p}" for p in clause) + ")"
            for clause in self.clauses
        )
        self.predicate = parse_predicate(text, num_processes=n)
        self.computations = []
        self.refs: List[bool] = []
        for s in _seeds(self.seed, self.inputs):
            comp = grouped_computation(
                self.groups,
                self.group_size,
                self.events,
                seed=s,
                variables=[BoolVar("x", density=0.1)],
            )
            CausalityIndex.of(comp).matrix
            self.computations.append(comp)
            ref = detect_singular(comp, self.predicate, strategy="process-choice")
            self.refs.append(ref.holds)
            # Fills the index's per-clause caches, as a repeated query finds them.
            self.run(len(self.refs) - 1)

    def run(self, i: int, tracer: Any = NULL) -> Any:
        from repro.detection import detect

        with tracer.span("detection.detect"):
            result = detect(self.computations[i % self.inputs], self.predicate)
        return result

    def check(self, i: int, result: Any) -> Optional[str]:
        if result.holds != self.refs[i % self.inputs]:
            return f"verdict {result.holds} differs from process-choice"
        if not result.holds:
            return None
        return witness_problem(
            self.computations[i % self.inputs],
            result.witness.frontier,
            self.clauses,
        )


# ----------------------------------------------------------------------
class PairAudit(Workload):
    """A library user auditing mutual exclusion on a loaded computation.

    Chosen because the parser, the classifier and ``detect()`` dispatch do
    the work while the engines are cheap and there is no ingest: one
    request runs all 66 textual ``possibly(x@i & x@j)`` queries plus six
    opaque lambda twins compiled fresh, so each goes through
    classification and validation.  The lambdas stay inside the
    classifier's fragment with literal process ids; a closure or a
    ``bool(...)`` wrapper is unclassifiable and falls to unsliced lattice
    enumeration, which does not finish on this shape.
    """

    name = "pair-audit"
    rate = 30.0
    inputs = 4
    processes, events = 12, 200
    opaque = 6

    def setup(self) -> None:
        from repro.detection import detect
        from repro.predicates.parser import parse_predicate
        from repro.trace import BoolVar, random_computation

        self.pairs = list(itertools.combinations(range(self.processes), 2))
        rng = random.Random(self.seed)
        self.computations = []
        self.twins: List[List[tuple]] = []
        self.refs: List[Dict[tuple, Any]] = []
        for s in _seeds(self.seed, self.inputs):
            comp = random_computation(
                self.processes,
                self.events - 1,
                message_density=0.3,
                seed=s,
                variables=[BoolVar("x", density=0.03)],
            )
            self.computations.append(comp)
            self.twins.append(sorted(rng.sample(self.pairs, self.opaque)))
            self.refs.append(
                {
                    (a, b): _frontier_of(
                        detect(
                            comp,
                            parse_predicate(
                                f"x@{a} & x@{b}", num_processes=self.processes
                            ),
                            engine="work-optimal",
                        )
                    )
                    for a, b in self.pairs
                }
            )
        for k in range(self.inputs):
            self.run(k)

    def run(self, i: int, tracer: Any = NULL) -> Any:
        from repro.analysis.classify import classification_for
        from repro.detection import detect
        from repro.predicates.base import FunctionPredicate
        from repro.predicates.parser import parse_predicate

        computation = self.computations[i % self.inputs]
        textual = {}
        for a, b in self.pairs:
            with tracer.span("predicates.parse"):
                predicate = parse_predicate(
                    f"x@{a} & x@{b}", num_processes=self.processes
                )
            with tracer.span("detection.detect"):
                textual[a, b] = _frontier_of(detect(computation, predicate))
        opaque = {}
        for a, b in self.twins[i % self.inputs]:
            with tracer.span("client.compile"):
                source = f"lambda cut: cut.value({a}, 'x') and cut.value({b}, 'x')"
                fn = eval(compile(source, "<audit>", "eval"))  # noqa: S307
                fn.__repro_source__ = source
                predicate = FunctionPredicate(fn, name=source)
            if tracer is not NULL:
                # Untraced, detect() classifies on a cache miss; traced,
                # the classification is timed on its own and detect() hits.
                with tracer.span("analysis.classify"):
                    classification_for(predicate, computation)
            with tracer.span("detection.detect"):
                opaque[a, b] = _frontier_of(detect(computation, predicate))
        return textual, opaque

    def check(self, i: int, outcome: Any) -> Optional[str]:
        textual, opaque = outcome
        refs = self.refs[i % self.inputs]
        computation = self.computations[i % self.inputs]
        for pair, frontier in textual.items():
            problem = _frontier_problem(frontier, refs[pair])
            if problem is None and frontier is not None:
                problem = witness_problem(computation, frontier, [[p] for p in pair])
            if problem:
                return f"x@{pair[0]} & x@{pair[1]}: {problem}"
        for pair, frontier in opaque.items():
            if frontier != textual[pair]:
                return f"opaque twin of {pair} gives {frontier}, text {textual[pair]}"
        return None

    def work(self, i: int) -> float:
        return float(len(self.pairs) + self.opaque)


PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _die_with_parent() -> None:
    """In the server child: get SIGTERM (a graceful drain) if the
    benchmark dies, even by SIGKILL, so no server outlives a run."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def _frontier_of(result: Any) -> Optional[List[int]]:
    return list(result.witness.frontier) if result.holds else None


# ----------------------------------------------------------------------
class ServeSessions(Workload):
    """The monitoring service over a socket, one session per request.

    Chosen because the service and the online monitors do all the work and
    offline detection does none; the online monitor builds ``VectorClock``
    objects per observation, so this guards against a clock or ingest
    change that helps ``ingest-4k`` but slows streaming.  The service keeps
    every closed session, so latency and memory grow over the run.
    """

    name = "serve-sessions"
    rate = 10.0
    processes, events, batch = 8, 200, 256
    time_limit_s = 10.0

    def setup(self) -> None:
        from repro.detection import detect
        from repro.predicates.parser import parse_predicate
        from repro.service import SocketTransport, Submitter
        from repro.service.session import observation_stream
        from repro.trace import BoolVar, random_computation

        self.queries = [
            (f"pair({a},{b})", [a, b])
            for a, b in itertools.combinations(range(self.processes), 2)
        ]
        self.computations = []
        self.streams = []
        self.refs: List[Dict[str, Any]] = []
        for s in _seeds(self.seed, self.inputs):
            comp = random_computation(
                self.processes,
                self.events - 1,
                message_density=0.3,
                seed=s,
                variables=[BoolVar("x", density=0.1)],
            )
            self.computations.append(comp)
            self.streams.append(observation_stream(comp, range(self.processes)))
            refs = {}
            for name, (a, b) in self.queries:
                frontier = _frontier_of(
                    detect(
                        comp,
                        parse_predicate(
                            f"x@{a} & x@{b}", num_processes=self.processes
                        ),
                    )
                )
                if frontier is not None and witness_problem(
                    comp, frontier, [[a], [b]]
                ):
                    raise RuntimeError(f"offline reference for {name} is invalid")
                refs[name] = frontier
            self.refs.append(refs)
        # Client and server share one CPU.  Split across two vCPUs, every
        # batch ack waits on a cross-CPU wakeup, and on a 2-vCPU VM the run
        # median spread twice as wide (13-15% against 7% over five seeds),
        # measuring scheduler latency more than the service's work.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._boot()
        self.transport = SocketTransport(self.host, self.port)
        self.submitter = Submitter(
            self.transport,
            retries=1,
            deadline_s=self.time_limit_s,
        )
        self.submitter.ping()
        for k in range(2):
            self._session(f"warmup-{k}", k, NULL)
        self.high_water = 0

    def _boot(self) -> None:
        env = dict(os.environ)
        src = str(Path.cwd() / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_RUNS"] = str(self.workdir / "runs.jsonl")
        self.server_err = open(self.workdir / "serve.err", "wb")
        self.server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "--runs-ledger",
                str(self.workdir / "runs.jsonl"),
                "serve",
                "--port",
                "0",
            ],
            cwd=self.workdir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self.server_err,
            text=True,
            preexec_fn=_die_with_parent,
        )
        self.server_pid = self.server.pid
        ready, _, _ = select.select([self.server.stdout], [], [], 60.0)
        line = self.server.stdout.readline() if ready else ""
        fields = dict(
            part.split("=", 1) for part in line.split() if "=" in part
        )
        if not line.startswith("repro-serve: ready") or "port" not in fields:
            raise RuntimeError(f"repro serve did not become ready: {line!r}")
        self.host, self.port = fields["host"], int(fields["port"])

    def _session(self, sid: str, k: int, tracer: Any) -> Dict[str, Any]:
        stream = self.streams[k]
        with tracer.span("service.open"):
            self.submitter.open_session(
                sid, self.processes, self.queries, lossy=False
            )
        for lo in range(0, len(stream), self.batch):
            with tracer.span("service.submit"):
                self.submitter.submit(sid, stream[lo:lo + self.batch])
        with tracer.span("service.close"):
            return self.submitter.close_session(sid)["report"]

    def run(self, i: int, tracer: Any = NULL) -> Any:
        report = self._session(f"s{i:05d}", i % self.inputs, tracer)
        self.high_water = max(self.high_water, report["queue_high_water"])
        return report

    def replay(self, i: int, outcome: Any, tracer: Tracer) -> None:
        from repro.events import VectorClock
        from repro.monitor.multiplex import MonitorGroup

        group = MonitorGroup(self.processes)
        for name, procs in self.queries:
            group.add(name, procs)
        with tracer.span("monitor.observe", replayed=True):
            for p, index, clock, truth in self.streams[i % self.inputs]:
                group.observe(p, index, VectorClock(clock), truth)
            group.finish_all()

    def check(self, i: int, report: Any) -> Optional[str]:
        refs = self.refs[i % self.inputs]
        for name, (a, b) in self.queries:
            want = refs[name]
            if report["detected"].get(name) != (want is not None):
                return f"{name}: online verdict differs from offline detect"
            if want is not None:
                witness = report["witnesses"][name]
                got = [witness[str(p)][0] + 1 for p in (a, b)]
                if got != [want[a], want[b]]:
                    return f"{name}: online witness {got} differs from offline"
        return None

    def work(self, i: int) -> float:
        return float(len(self.streams[i % self.inputs]))

    def layer_stats(self) -> Dict[str, float]:
        stats = self.submitter.stats()["stats"]
        # The server's own counters, in place of an in-process Capture.
        self.counters = {
            f"service.{key}": value for key, value in stats["counts"].items()
        }
        return {
            "service.sessions_retained": float(stats["sessions"]),
            "service.queue_high_water": float(self.high_water),
        }

    def close(self) -> None:
        """Stop the server on every exit path: ask, then kill."""
        server = getattr(self, "server", None)
        if server is None:
            return
        from repro.service import ServiceError

        try:
            if hasattr(self, "submitter") and server.poll() is None:
                self.submitter.shutdown()
        except (OSError, ServiceError):
            pass  # the server is gone or wedged; the kill below handles both
        finally:
            if hasattr(self, "transport"):
                self.transport.close()
            try:
                server.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.communicate()
            self.server_err.close()


WORKLOADS = {
    w.name: w for w in (Ingest4k, KcnfSweep, PairAudit, ServeSessions)
}
