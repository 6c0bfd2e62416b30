"""The run ledger: one durable ``repro-run-v1`` record per CLI invocation.

``repro.obs`` is process-local and evaporates when the CLI exits.  The
ledger makes a run's observability durable: every work command
(``detect``, ``profile``, ``generate``, ``simulate``, ``fuzz``,
``lint``, ``render``, ``info`` — and the benchmark report) appends one
schema-versioned JSON line to ``.repro/runs.jsonl`` capturing

* the command, its argv and a SHA-256 **args fingerprint**;
* the **trace digest** (SHA-256 of the input/output trace file);
* the verdict and exit code, plus the engine's ``DetectionResult.stats``;
* the full **metrics snapshot** and **span trees** of the run;
* wall/CPU time and a UTC start timestamp.

Records are read back by ``repro runs list|show|last|diff`` (see
``docs/RUNS.md``).  The ledger path resolves flag > ``REPRO_RUNS`` env >
``.repro/runs.jsonl`` in the working directory; ``REPRO_RUNS=off`` (or
``0``/``none``) disables recording, which is how the test suite keeps
scratch directories clean.

Ledger I/O must never break the command it observes: append failures
print a one-line warning to stderr (and count ``runs.write_errors``)
without changing the exit code.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import registry
from repro.obs.spans import Capture

__all__ = [
    "RUN_SCHEMA",
    "RunRecorder",
    "annotate",
    "append_record",
    "current_recorder",
    "diff_records",
    "fingerprint_args",
    "format_diff",
    "read_records",
    "resolve_ledger_path",
    "resolve_ref",
    "validate_record",
]

RUN_SCHEMA = "repro-run-v1"

DEFAULT_LEDGER = os.path.join(".repro", "runs.jsonl")

#: Values of ``REPRO_RUNS`` (or the ``--runs-ledger`` flag) that disable
#: recording outright.
_OFF_VALUES = ("off", "0", "none", "disabled")

#: Fields every valid record must carry, with their accepted types.
_REQUIRED_FIELDS = {
    "schema": str,
    "id": str,
    "command": str,
    "argv": list,
    "args_fingerprint": str,
    "started_at": str,
    "wall_ms": (int, float),
    "cpu_ms": (int, float),
    "exit_code": int,
    "stats": dict,
    "metrics": dict,
    "spans": list,
}


# ----------------------------------------------------------------------
# Path resolution and fingerprints
# ----------------------------------------------------------------------
def resolve_ledger_path(flag_value: Optional[str] = None) -> Optional[str]:
    """The ledger file to append to, or None when recording is disabled.

    Precedence: explicit flag > ``REPRO_RUNS`` environment variable >
    the ``.repro/runs.jsonl`` default.  Either layer may disable the
    ledger with one of ``off``/``0``/``none``/``disabled``.
    """
    value = flag_value
    if value is None:
        value = os.environ.get("REPRO_RUNS")
    if value is None:
        return DEFAULT_LEDGER
    if value.strip().lower() in _OFF_VALUES or not value.strip():
        return None
    return value


def fingerprint_args(command: str, argv: Sequence[str]) -> str:
    """Stable SHA-256 fingerprint of a parsed invocation."""
    payload = json.dumps([command, list(argv)], separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def digest_file(path: str) -> Optional[str]:
    """``sha256:<hex>`` digest of a file, or None when unreadable."""
    try:
        with open(path, "rb") as handle:
            return "sha256:" + hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


# ----------------------------------------------------------------------
# Append / read / validate
# ----------------------------------------------------------------------
#: Transient-failure retry budget for one ledger append.
_APPEND_ATTEMPTS = 3


def _append_line(path: str, line: str) -> None:
    """Write one record as a single ``O_APPEND`` ``write(2)`` call.

    Concurrent appenders (service workers sharing one ledger) each issue
    one atomic append, so records from different threads or processes
    interleave whole-line, never byte-wise.  Transient ``OSError``\\ s
    (EINTR, momentary EAGAIN on shared filesystems) are retried a
    bounded number of times — but only when nothing reached the file: a
    raising ``write(2)`` transferred zero bytes, and a zero-length short
    write appended nothing.  A *non-zero* short write (e.g. ENOSPC
    mid-record) already left a partial line on disk, so retrying would
    append a torn prefix followed by a duplicate record; that case fails
    immediately.  The final failure propagates so callers keep their
    ``runs.write_errors`` semantics.
    """
    data = (line + "\n").encode("utf-8")
    for attempt in range(_APPEND_ATTEMPTS):
        fd = None
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
            written = os.write(fd, data)
        except OSError:
            if attempt == _APPEND_ATTEMPTS - 1:
                raise
            continue
        finally:
            if fd is not None:
                os.close(fd)
        if written == len(data):
            return
        if written == 0:
            if attempt == _APPEND_ATTEMPTS - 1:
                raise OSError(
                    f"could not append to {path}: "
                    f"wrote 0/{len(data)} bytes"
                )
            continue
        raise OSError(
            f"short write to {path}: {written}/{len(data)} bytes; "
            "partial record on disk, not retrying"
        )


#: Line breaks as a text-mode read splits them (universal newlines).
_LINE_BREAK = re.compile(r"\r\n|\r|\n")

#: Per path: ``(st_dev, st_ino, offset, count)`` — ``count`` non-blank
#: lines end at byte ``offset`` (just past a newline) of that file.
_COUNTED: Dict[str, Tuple[int, int, int, int]] = {}


def _nonblank_lines(data: bytes) -> int:
    return sum(
        1 for line in _LINE_BREAK.split(data.decode("utf-8")) if line.strip()
    )


def _count_records(path: str) -> int:
    """Non-blank lines of the ledger, reading only what was appended
    since this process last counted it.

    The count of complete lines is cached per path and reused while the
    file is the same inode, has not shrunk, and still has a newline just
    before the cached offset; otherwise counting starts over.  A torn
    last line (no newline yet) is counted but not cached, since another
    writer may still complete it.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return 0
    with handle:
        st = os.fstat(handle.fileno())
        dev, ino, offset, count = _COUNTED.get(path, (0, 0, 0, 0))
        if (dev, ino) != (st.st_dev, st.st_ino) or offset > st.st_size:
            offset = count = 0
        if offset:
            handle.seek(offset - 1)
            if handle.read(1) != b"\n":
                handle.seek(0)
                offset = count = 0
        data = handle.read()
    end = data.rfind(b"\n") + 1
    count += _nonblank_lines(data[:end])
    _COUNTED[path] = (st.st_dev, st.st_ino, offset + end, count)
    return count + _nonblank_lines(data[end:])


def append_record(path: str, record: Dict[str, Any]) -> Dict[str, Any]:
    """Assign schema + id, append one JSON line, return the full record.

    The line itself is written with a single atomic append (see
    :func:`_append_line`), so many workers may share one ledger file.
    The 1-based sequence prefix of the ``id`` is advisory under
    concurrency — two simultaneous appenders may count the same length —
    but the fingerprint suffix keeps ids distinguishable and every line
    stays a complete, valid record.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    seq = _count_records(path)
    full = dict(record)
    full["schema"] = RUN_SCHEMA
    full["id"] = f"{seq + 1:06d}-{full['args_fingerprint'][:8]}"
    line = json.dumps(_jsonable(full), sort_keys=True, separators=(",", ":"))
    _append_line(path, line)
    return full


def read_records(path: str) -> List[Dict[str, Any]]:
    """All valid records of a ledger file, in append order.

    Raises:
        ValueError: On a line that is not valid JSON or not a valid
            ``repro-run-v1`` record.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: invalid JSON in run ledger: {exc}"
                ) from exc
            validate_record(record, source=f"{path}:{lineno}")
            records.append(record)
    return records


def validate_record(record: Any, source: str = "record") -> None:
    """Raise ValueError unless ``record`` is a valid ``repro-run-v1``."""
    if not isinstance(record, dict):
        raise ValueError(f"{source}: run record must be an object")
    schema = record.get("schema")
    if schema != RUN_SCHEMA:
        raise ValueError(
            f"{source}: unsupported run record schema {schema!r} "
            f"(expected {RUN_SCHEMA!r})"
        )
    for field, types in _REQUIRED_FIELDS.items():
        if field not in record:
            raise ValueError(f"{source}: run record missing field {field!r}")
        if not isinstance(record[field], types):
            raise ValueError(
                f"{source}: run record field {field!r} has wrong type"
            )


def resolve_ref(records: Sequence[Dict[str, Any]], ref: str) -> Dict[str, Any]:
    """A record by reference: ``last``, ``prev``, an index, or an id prefix.

    Indices are 1-based from the start; negative indices count from the
    end (``-1`` = latest).
    """
    if not records:
        raise ValueError("run ledger is empty")
    token = ref.strip().lower()
    if token == "last":
        return records[-1]
    if token == "prev":
        if len(records) < 2:
            raise ValueError("run ledger has no previous record")
        return records[-2]
    try:
        index = int(token)
    except ValueError:
        matches = [r for r in records if r["id"].startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ValueError(f"no run record matches {ref!r}") from None
        raise ValueError(f"run reference {ref!r} is ambiguous") from None
    if index == 0:
        raise ValueError("run indices are 1-based (or negative from the end)")
    pos = index - 1 if index > 0 else index
    try:
        return records[pos]
    except IndexError:
        raise ValueError(
            f"run index {index} out of range (ledger has {len(records)})"
        ) from None


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
def _num_delta(a: Any, b: Any) -> Optional[Dict[str, Any]]:
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return None
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    return {"a": a, "b": b, "delta": b - a}


def _numeric_map_diff(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for key in sorted(set(a) | set(b)):
        entry = _num_delta(a.get(key, 0), b.get(key, 0))
        if entry is not None and entry["delta"] != 0:
            out[key] = entry
    return out


def diff_records(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Any]:
    """Structured delta between two run records (``a`` → ``b``)."""
    metrics_a, metrics_b = a.get("metrics", {}), b.get("metrics", {})
    hist_a = metrics_a.get("histograms", {})
    hist_b = metrics_b.get("histograms", {})
    histograms: Dict[str, Dict[str, Any]] = {}
    for name in sorted(set(hist_a) | set(hist_b)):
        sa = hist_a.get(name, {})
        sb = hist_b.get(name, {})
        entry = {
            "count": _num_delta(sa.get("count", 0), sb.get("count", 0)),
            "mean_ms": _num_delta(sa.get("mean", 0.0), sb.get("mean", 0.0)),
            "p95_ms": _num_delta(sa.get("p95", 0.0), sb.get("p95", 0.0)),
        }
        if any(v and v["delta"] for v in entry.values()):
            histograms[name] = entry
    stats_a = {
        k: v for k, v in a.get("stats", {}).items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    stats_b = {
        k: v for k, v in b.get("stats", {}).items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    return {
        "a": {"id": a["id"], "command": a["command"]},
        "b": {"id": b["id"], "command": b["command"]},
        "verdict": {"a": a.get("verdict"), "b": b.get("verdict")},
        "wall_ms": _num_delta(a.get("wall_ms", 0.0), b.get("wall_ms", 0.0)),
        "cpu_ms": _num_delta(a.get("cpu_ms", 0.0), b.get("cpu_ms", 0.0)),
        "stats": _numeric_map_diff(stats_a, stats_b),
        "counters": _numeric_map_diff(
            metrics_a.get("counters", {}), metrics_b.get("counters", {})
        ),
        "gauges": _numeric_map_diff(
            metrics_a.get("gauges", {}), metrics_b.get("gauges", {})
        ),
        "histograms": histograms,
    }


def _fmt_num(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_diff(diff: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`diff_records`."""
    lines = [
        f"runs diff: {diff['a']['id']} ({diff['a']['command']}) -> "
        f"{diff['b']['id']} ({diff['b']['command']})",
        f"verdict: {diff['verdict']['a']} -> {diff['verdict']['b']}",
    ]
    for label in ("wall_ms", "cpu_ms"):
        entry = diff.get(label)
        if entry:
            lines.append(
                f"{label}: {_fmt_num(entry['a'])} -> {_fmt_num(entry['b'])} "
                f"({entry['delta']:+.2f})"
            )
    for section in ("stats", "counters", "gauges"):
        entries = diff.get(section, {})
        if entries:
            lines.append(f"{section}:")
            for key, entry in entries.items():
                lines.append(
                    f"  {key}  {_fmt_num(entry['a'])} -> "
                    f"{_fmt_num(entry['b'])} ({_fmt_num(entry['delta'])})"
                )
    histograms = diff.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name, entry in histograms.items():
            parts = []
            for label, sub in entry.items():
                if sub and sub["delta"]:
                    parts.append(
                        f"{label} {_fmt_num(sub['a'])} -> "
                        f"{_fmt_num(sub['b'])}"
                    )
            lines.append(f"  {name}  " + ", ".join(parts))
    if not (diff.get("stats") or diff.get("counters") or diff.get("gauges")
            or histograms):
        lines.append("no metric deltas")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Recording a live run
# ----------------------------------------------------------------------
_CURRENT: Optional["RunRecorder"] = None


def current_recorder() -> Optional["RunRecorder"]:
    """The recorder of the in-flight CLI invocation, if any."""
    return _CURRENT


def annotate(**fields: Any) -> None:
    """Attach command-level fields (verdict, stats, trace, …) to the
    in-flight run record; a silent no-op when no recorder is active."""
    if _CURRENT is not None:
        _CURRENT.annotations.update(fields)


class RunRecorder:
    """Context manager wrapping one CLI invocation for the ledger.

    Enters an :class:`~repro.obs.spans.Capture` so the run's metrics and
    span trees are collected even without ``--profile``; on exit it
    appends exactly one record.  Commands annotate verdict/stats/trace
    through :func:`annotate`.
    """

    def __init__(self, path: str, command: str, argv: Sequence[str]) -> None:
        self.path = path
        self.command = command
        self.argv = list(argv)
        self.annotations: Dict[str, Any] = {}
        self.exit_code: Optional[int] = None
        self.record: Optional[Dict[str, Any]] = None
        self._capture = Capture()
        self._wall_start = 0.0
        self._cpu_start = 0.0
        self._started_at = ""

    def __enter__(self) -> "RunRecorder":
        global _CURRENT
        # Wall-clock timestamp is record metadata, never control flow.
        started = time.gmtime()  # repro: lint-ignore[DET102]
        self._started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", started)
        self._capture.__enter__()
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        _CURRENT = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _CURRENT
        _CURRENT = None
        wall_ms = (time.perf_counter() - self._wall_start) * 1000.0
        cpu_ms = (time.process_time() - self._cpu_start) * 1000.0
        registry().counter("runs.recorded").inc()
        self._capture.__exit__(exc_type, exc, tb)
        spans = self.annotations.pop(
            "spans", [root.to_dict() for root in self._capture.roots]
        )
        trace_path = self.annotations.pop("trace", None)
        trace = None
        if trace_path is not None:
            trace = {
                "path": str(trace_path),
                "digest": digest_file(str(trace_path)),
            }
        exit_code = self.exit_code
        if exit_code is None:
            # The command raised through us without a mapped exit code.
            exit_code = 70
        record = {
            "command": self.command,
            "argv": self.argv,
            "args_fingerprint": fingerprint_args(self.command, self.argv),
            "started_at": self._started_at,
            "wall_ms": wall_ms,
            "cpu_ms": cpu_ms,
            "exit_code": exit_code,
            "verdict": self.annotations.pop("verdict", None),
            "trace": trace,
            "stats": self.annotations.pop("stats", {}),
            "metrics": self._capture.registry.snapshot(),
            "spans": spans,
            "extra": self.annotations,
        }
        try:
            self.record = append_record(self.path, record)
        except OSError as exc2:
            registry().counter("runs.write_errors").inc()
            import sys

            print(
                f"repro: warning: could not append run record to "
                f"{self.path}: {exc2}",
                file=sys.stderr,
            )
        return False
