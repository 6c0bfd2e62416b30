"""Tests for progress telemetry: repro.obs.progress and the CLI flags."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.progress import (
    NOOP_TRACKER,
    PROGRESS,
    DeadlineExceeded,
    ProgressEvent,
    format_event,
    progress_context,
    tracker,
)
from repro.trace import dump_computation


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.registry().reset()
    yield
    obs.disable()
    obs.registry().reset()
    assert PROGRESS.active is None  # contexts must restore on exit


class TestTracker:
    def test_inactive_returns_shared_noop(self):
        assert PROGRESS.active is None
        trk = tracker("detect.cuts")
        assert trk is NOOP_TRACKER
        trk.step()
        trk.finish()  # all silent no-ops

    def test_events_are_monotonic_and_carry_progress(self):
        events = []
        with progress_context(sink=events.append, interval_s=0.0):
            trk = tracker("detect.combinations", total=8)
            for _ in range(8):
                trk.step()
            trk.finish()
        assert events, "active sink with interval 0 must tick"
        dones = [e.done for e in events]
        assert dones == sorted(dones)
        assert events[-1].done == 8
        assert all(e.name == "detect.combinations" for e in events)
        assert all(e.total == 8 for e in events)
        assert all(e.elapsed_s >= 0 for e in events)

    def test_check_every_batches_clock_reads(self):
        events = []
        with progress_context(sink=events.append, interval_s=0.0):
            trk = tracker("detect.cuts", check_every=64)
            for _ in range(200):
                trk.step()
        # Checkpoints at 64, 128, 192 — not 200 of them.
        assert [e.done for e in events] == [64, 128, 192]

    def test_rate_limit_suppresses_ticks(self):
        events = []
        with progress_context(sink=events.append, interval_s=3600.0):
            trk = tracker("detect.cuts")
            for _ in range(100):
                trk.step()
            trk.finish()  # force-emits despite the rate limit
        assert [e.done for e in events] == [100]

    def test_nested_contexts_restore_previous(self):
        with progress_context() as outer:
            assert PROGRESS.active is outer
            with progress_context() as inner:
                assert PROGRESS.active is inner
            assert PROGRESS.active is outer
        assert PROGRESS.active is None

    def test_ticks_counter_when_obs_enabled(self):
        obs.enable()
        with progress_context(sink=lambda e: None, interval_s=0.0):
            trk = tracker("detect.cuts")
            trk.step()
        assert obs.registry().counter("progress.ticks").value >= 1


class TestDeadline:
    def test_deadline_raises_with_loop_state(self):
        with progress_context(deadline_ms=0.0):
            trk = tracker("detect.cuts", total=100, check_every=4)
            with pytest.raises(DeadlineExceeded) as info:
                for _ in range(100):
                    trk.step()
        exc = info.value
        assert exc.name == "detect.cuts"
        assert exc.done == 4  # first checkpoint
        assert exc.total == 100
        assert exc.deadline_ms == 0.0
        assert exc.elapsed_ms >= 0.0
        assert "detect.cuts" in str(exc)

    def test_no_deadline_never_raises(self):
        with progress_context():
            trk = tracker("detect.cuts")
            for _ in range(1000):
                trk.step()

    def test_deadline_hits_counter_when_obs_enabled(self):
        obs.enable()
        with progress_context(deadline_ms=0.0):
            trk = tracker("x")
            with pytest.raises(DeadlineExceeded):
                trk.step()
        assert obs.registry().counter("progress.deadline_hits").value == 1


class TestFormatEvent:
    def test_with_total_and_eta(self):
        line = format_event(
            ProgressEvent("detect.combinations", 25, 100, 2.0, 6.0)
        )
        assert line == (
            "progress: detect.combinations 25/100 (25.0%) "
            "elapsed=2.0s eta=6.0s"
        )

    def test_open_ended(self):
        line = format_event(ProgressEvent("detect.cuts", 640, None, 1.25, None))
        assert line == "progress: detect.cuts 640 elapsed=1.2s"


@pytest.fixture
def trace_path(tmp_path, figure2):
    path = tmp_path / "figure2.json"
    dump_computation(figure2, path)
    return str(path)


@pytest.fixture
def big_trace(tmp_path):
    """A trace whose definitely-lattice search runs for many seconds."""
    path = str(tmp_path / "big.json")
    code = main(
        ["generate", "--processes", "6", "--events", "10",
         "--walk", "x", "--seed", "11", "-o", path]
    )
    assert code == 0
    return path


class TestCliProgress:
    def test_detect_progress_ticks_on_stderr(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS_INTERVAL_MS", "0")
        path = str(tmp_path / "walk.json")
        assert main(
            ["generate", "--processes", "4", "--events", "6",
             "--walk", "x", "--seed", "5", "-o", path]
        ) == 0
        capsys.readouterr()
        # The negation has no conjunctive approximation, so the whole
        # lattice is walked: the slice would prove sum(x) >= 99
        # unreachable instantly, and this test needs a long loop to
        # observe heartbeats from.
        code = main(
            ["detect", path, "!(sum(x) < 99)", "--modality", "definitely",
             "--progress"]
        )
        captured = capsys.readouterr()
        assert code == 1
        json.loads(captured.out)  # stdout still carries the verdict
        ticks = [
            line for line in captured.err.splitlines()
            if line.startswith("progress: ")
        ]
        assert ticks, "the cut enumeration must tick at interval 0"
        dones = [int(line.split()[2].split("/")[0]) for line in ticks]
        assert dones == sorted(dones)

    def test_fuzz_progress_ticks(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS_INTERVAL_MS", "0")
        code = main(
            ["fuzz", "--seed", "3", "--iterations", "3", "--no-shrink",
             "--progress"]
        )
        captured = capsys.readouterr()
        assert code == 0
        ticks = [
            line for line in captured.err.splitlines()
            if line.startswith("progress: fuzz.iterations")
        ]
        assert ticks
        assert "3/3" in ticks[-1]

    def test_deadline_exceeded_is_clean_inconclusive_exit_7(
        self, big_trace, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PROGRESS_INTERVAL_MS", "0")
        code = main(
            ["detect", big_trace, "!(sum(x) < 99)", "--modality",
             "definitely", "--progress", "--deadline-ms", "1"]
        )
        captured = capsys.readouterr()
        assert code == 7
        payload = json.loads(captured.out)
        assert payload["holds"] is None
        assert payload["verdict"] == "inconclusive"
        assert payload["deadline_ms"] == 1.0
        assert payload["progress"]["done"] > 0
        assert payload["progress"]["elapsed_ms"] > 0
        # The heartbeat counts never decrease on the way there.
        dones = [
            int(line.split()[2].split("/")[0])
            for line in captured.err.splitlines()
            if line.startswith("progress: ")
        ]
        assert dones == sorted(dones)

    def test_deadline_not_hit_returns_normal_verdict(self, trace_path, capsys):
        code = main(
            ["detect", trace_path, "x@0 & x@3", "--deadline-ms", "60000"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["holds"] is True

    def test_deadline_recorded_in_ledger(
        self, big_trace, tmp_path, capsys, monkeypatch
    ):
        from repro.obs import ledger

        path = str(tmp_path / "runs.jsonl")
        code = main(
            ["--runs-ledger", path, "detect", big_trace, "!(sum(x) < 99)",
             "--modality", "definitely", "--deadline-ms", "1"]
        )
        capsys.readouterr()
        assert code == 7
        (record,) = ledger.read_records(path)
        assert record["exit_code"] == 7
        assert record["verdict"] == "inconclusive"
        assert record["stats"]["deadline_done"] > 0
        hits = record["metrics"]["counters"].get("progress.deadline_hits")
        assert hits == 1
