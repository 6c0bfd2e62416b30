"""Benchmark driver for the ``repro`` detector.

Run from the root of a checkout (the directory holding ``src/repro``)::

    python3 perfbench/run.py --workload ingest-4k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run generates the workload's inputs from ``--seed``, serves a fixed
count of closed-loop requests (``--seconds`` times the workload's rate,
at least 100) from this one process, checks every answer against a
reference computed in set-up, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  See README.md.
"""

from time import perf_counter

# setup_s counts from here: imports, input generation, server boot,
# references and warm-up, up to the first timed request.
_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

NAMES = ("ingest-4k", "kcnf-sweep", "pair-audit", "serve-sessions")
#: Set-ups in separate processes besides the measuring one; setup_s is the
#: median of all of them.  They run between thirds of the timed loop, which
#: spreads the timed requests over a longer stretch of the host's
#: fast and slow phases at no extra cost.
SETUP_REPEATS = 2
OUT_DIR = ".perfbench"


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print {'setup_s': ...} and exit (used for repeats)",
    )
    return parser.parse_args(argv)


def _import_program(root: Path) -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no src/repro under {root}; run from a checkout root"
        )
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


def _declared_units(root: Path, trace: int) -> Dict[str, str]:
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return {
        m["name"]: m["unit"]
        for m in declared["per_layer" if trace else "end_to_end"]
    }


def _run_self(args: argparse.Namespace, *extra: str, timeout: float) -> tuple:
    """Run this script as a child; (exit code, stdout, stderr).

    On any exit path the child gets SIGTERM first, so it can stop a
    server it started, and is killed only if it does not end.
    """
    child = subprocess.Popen(
        [sys.executable, __file__, "--seed", str(args.seed),
         "--seconds", str(args.seconds), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = child.communicate(timeout=timeout)
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
    return child.returncode, out, err


def _setup_repeat(args: argparse.Namespace) -> float:
    code, out, err = _run_self(
        args, "--workload", args.workload, "--setup-only", timeout=150
    )
    if code != 0:
        raise RuntimeError(f"set-up repeat failed: {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


class Loop:
    """What the timed loop observed."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.untraced_ms: List[float] = []
        self.traced_ms: List[float] = []
        self.traced_ids: List[int] = []
        self.counters: Dict[str, float] = {}
        self.problems: List[str] = []
        self.work = 0.0
        self.setups: List[float] = []
        self.rss_growth = 0.0
        self.peak_rss = 0.0

    def add_counters(self, snapshot: Dict[str, Any]) -> None:
        # Engines publish their combination counts as gauges.
        gauges = {
            k: v for k, v in snapshot["gauges"].items()
            if k.endswith(".combinations")
        }
        for key, value in list(snapshot["counters"].items()) + list(
            gauges.items()
        ):
            self.counters[key] = self.counters.get(key, 0) + value


def _timed_loop(
    args: argparse.Namespace, wl: Any, count: int, tracer: harness.Tracer
) -> Loop:
    from repro import obs

    loop = Loop()
    traced_run = bool(args.trace)
    repeat_at = (
        set()
        if traced_run
        else {count * k // (SETUP_REPEATS + 1) for k in range(1, SETUP_REPEATS + 1)}
    )
    rss_before = harness.rss_mb(wl.server_pid)
    with tracer.gc_watch() if traced_run else nullcontext():
        for i in range(count):
            if i in repeat_at:
                loop.setups.append(_setup_repeat(args))
            traced = traced_run and (i // wl.inputs) % 2 == 1
            elapsed_ms = None
            try:
                if traced:
                    with obs.Capture() as cap:
                        with tracer.request(i):
                            outcome = wl.run(i, tracer)
                    elapsed_ms = tracer.last_request_ms
                    wl.replay(i, outcome, tracer)
                    loop.add_counters(cap.registry.snapshot())
                else:
                    started = perf_counter()
                    outcome = wl.run(i)
                    elapsed_ms = (perf_counter() - started) * 1000.0
                problem = (
                    f"took {elapsed_ms:.0f} ms"
                    if elapsed_ms > wl.time_limit_s * 1000.0
                    else wl.check(i, outcome)
                )
            except Exception as exc:  # noqa: BLE001 - a failed request
                problem = f"{type(exc).__name__}: {exc}"
            if elapsed_ms is not None:
                loop.latencies.append(elapsed_ms)
                if traced:
                    loop.traced_ms.append(elapsed_ms)
                    loop.traced_ids.append(i)
                else:
                    loop.untraced_ms.append(elapsed_ms)
            if problem:
                loop.problems.append(f"request {i}: {problem}")
            else:
                loop.work += wl.work(i)
    loop.rss_growth = (harness.rss_mb(wl.server_pid) - rss_before) / count
    loop.peak_rss = harness.peak_rss_mb(wl.server_pid)
    return loop


def _end_to_end(loop: Loop, count: int) -> Dict[str, float]:
    return {
        "latency_p50_ms": statistics.median(loop.untraced_ms),
        "latency_p90_ms": harness.percentile(loop.untraced_ms, 0.9),
        "throughput": loop.work / (sum(loop.untraced_ms) / 1000.0),
        "setup_s": statistics.median(loop.setups),
        "peak_rss_mb": loop.peak_rss,
        "success_rate": 1.0 - len(loop.problems) / count,
    }


def _layer_metrics(wl: Any, tracer: harness.Tracer, loop: Loop) -> Dict[str, float]:
    per_request = tracer.per_request()
    requests = [per_request[i] for i in loop.traced_ids]
    n = max(1, len(requests))
    counters = loop.counters

    def per_call(name: str) -> float:
        durations = [
            (s["end"] - s["start"]) * 1000.0
            for s in tracer.spans
            if s["name"] == name
        ]
        return statistics.median(durations) if durations else 0.0

    def engine_total(stat: str) -> float:
        return sum(
            v for k, v in counters.items()
            if k.startswith("engine.") and k.endswith("." + stat)
        )

    def mean(key: str) -> float:
        return counters.get(key, 0.0) / n

    combinations = engine_total("combinations")
    invocations = engine_total("invocations")
    q1, q4 = harness.quarter_medians(loop.untraced_ms)
    base = statistics.median(loop.untraced_ms)
    values = {
        "trace.read_ms": per_call("trace.read"),
        "trace.decode_ms": per_call("trace.decode"),
        "trace.events": 0.0,
        "trace.bytes": 0.0,
        "computation.build_ms": per_call("computation.build"),
        "perf.index_ms": per_call("perf.index"),
        "perf.matrix_ms": per_call("perf.matrix"),
        "perf.clockmatrix.batch_calls": mean("perf.clockmatrix.batch_calls"),
        "perf.clockmatrix.rows": mean("perf.clockmatrix.rows"),
        "predicates.parse_ms": per_call("predicates.parse"),
        "analysis.classify_ms": per_call("analysis.classify"),
        "analysis.classify.hits": mean("analysis.classify.hits"),
        "analysis.classify.misses": mean("analysis.classify.misses"),
        "analysis.classify.rejects": mean("analysis.classify.rejects"),
        "detection.detect_ms": per_call("detection.detect"),
        "detection.calls": sum(
            r["calls"].get("detection.detect", 0) for r in requests) / n,
        "detection.combinations": combinations / n,
        "detection.invocations": invocations / n,
        "detection.advances": engine_total("advances") / n,
        "detection.invocations_per_combination": (
            invocations / combinations if combinations else 0.0),
        "monitor.observe_ms": per_call("monitor.observe"),
        "service.open_ms": per_call("service.open"),
        "service.submit_ms": per_call("service.submit"),
        "service.close_ms": per_call("service.close"),
        "service.sessions_retained": 0.0,
        "service.queue_high_water": 0.0,
        "runtime.gc_pause_ms": tracer.gc_pause_ms / n,
        "runtime.rss_growth_mb": loop.rss_growth,
        "runtime.latency_p50_first_quarter_ms": q1,
        "runtime.latency_p50_last_quarter_ms": q4,
        "obs.trace_overhead_pct": (
            (statistics.median(loop.traced_ms) - base) / base * 100.0),
    }
    values.update(wl.layer_stats())
    wall = sum(r["wall_ms"] for r in requests)
    for layer in harness.LAYERS + ("client",):
        if layer == "monitor":
            continue  # the service's monitors run in the server process
        spent = sum(r["self_ms"].get(layer, 0.0) for r in requests)
        values[f"{layer}.share"] = spent / wall
    return values


def measure(args: argparse.Namespace, root: Path) -> Dict[str, Any]:
    from workloads import WORKLOADS

    out = root / OUT_DIR
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out / "tmp"))
    wl = WORKLOADS[args.workload](args.seed, workdir)
    tracer = harness.Tracer()
    count = max(100, math.ceil(args.seconds * wl.rate))
    try:
        wl.setup()
        setup_s = perf_counter() - _STARTED
        if args.setup_only:
            return {"setup_s": setup_s}
        loop = _timed_loop(args, wl, count, tracer)
        loop.setups.insert(0, setup_s)
        if args.trace:
            metrics = _layer_metrics(wl, tracer, loop)
        else:
            metrics = _end_to_end(loop, count)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    units = _declared_units(root, args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are not declared "
            "in BENCHMARK.json, or declared and not measured"
        )
    q1, q4 = harness.quarter_medians(loop.untraced_ms)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": count,
        "problems": loop.problems[:20],
        "metrics": metrics,
        "latencies_ms": loop.latencies,
        "latency_p50_first_quarter_ms": q1,
        "latency_p50_last_quarter_ms": q4,
        "rss_growth_mb_per_request": loop.rss_growth,
        "setup_s_samples": loop.setups,
    }
    if args.trace:
        record["layer_shares"] = {
            name[: -len(".share")]: value
            for name, value in metrics.items()
            if name.endswith(".share")
        }
        record["algorithms"] = {
            key[len("detect.engine."):]: value
            for key, value in loop.counters.items()
            if key.startswith("detect.engine.")
        }
        record["gc_pause_ms_total"] = tracer.gc_pause_ms
        record["counters"] = dict(loop.counters, **wl.counters)
        record["spans"] = tracer.spans
    kind = "traces" if args.trace else "runs"
    (out / kind).mkdir(parents=True, exist_ok=True)
    (out / kind / f"{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(record, sort_keys=True)
    )
    for problem in loop.problems[:5]:
        print(f"perfbench: {problem}", file=sys.stderr)
    return {
        "correct": not loop.problems,
        "attempted": count,
        "failed": len(loop.problems),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process as a single run would be."""
    combined: Dict[str, Any] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {}
    }
    for name in NAMES:
        code, out, err = _run_self(
            args, "--workload", name, "--trace", str(args.trace), timeout=600
        )
        sys.stderr.write(err)
        if code != 0:
            print(f"perfbench: {name} failed (exit {code})", file=sys.stderr)
            return 1
        result = json.loads(out.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:15s} {metric:40s} {entry['value']:14.4f} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    # Turn SIGTERM into SystemExit so `finally` blocks stop the server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    root = Path.cwd()
    _import_program(root)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(measure(args, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
