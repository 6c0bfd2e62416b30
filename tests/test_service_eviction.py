"""Closed sessions leave the service: eviction at close, final reports.

``MonitorService`` releases a session's queue, journal, checkpoint and
monitors at its first close and keeps only the final report (JSON text)
in a map capped by ``supervisor._CLOSED_REPORTS_CAP``.  These tests pin
the contract of docs/SERVICE.md "Session lifecycle": nothing closed
stays hosted or reachable, every post-close request is answered exactly
as before eviction (in-process and over the wire protocol), the report
stays final across a worker crash, and past the cap the oldest id is
forgotten and may be reused.
"""

from __future__ import annotations

import gc
import time
import weakref

import pytest

from repro.service import (
    MonitorService,
    ServiceError,
    UnknownSession,
    handle_request,
)
from repro.service import supervisor
from repro.service.session import observation_stream
from repro.simulation.protocols import build_crash_restart_lock_scenario

STREAM = [
    [0, 0, [1, 0], False],
    [1, 0, [0, 1], False],
    [0, 1, [2, 0], True],
    [1, 1, [0, 2], True],
]


def _open(service, sid):
    return service.open_session(sid, 2, [("both", [0, 1])])


def _lifecycle(service, sid):
    _open(service, sid)
    service.submit(sid, STREAM)
    return service.close_session(sid, timeout_s=10.0)


def _wire(service, op, sid, **fields):
    return handle_request(service, {"op": op, "session": sid, **fields})


def _wait_restarted(service, slot, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        health = service.stats()["slots"][slot]
        if health["restarts"] and health["alive"]:
            return
        time.sleep(0.01)
    pytest.fail(f"worker slot {slot} did not restart")


def _assert_closed_answers(service, sid, final):
    """Every post-close request, in-process and on the wire."""
    assert service.session_report(sid) == final
    assert service.close_session(sid) == final
    with pytest.raises(ServiceError, match="is finished; no further"):
        service.submit(sid, STREAM[:1])
    service.finish_session(sid)  # a no-op
    with pytest.raises(ServiceError, match="already open"):
        _open(service, sid)

    assert _wire(service, "status", sid) == {"ok": True, "report": final}
    assert _wire(service, "close", sid) == {"ok": True, "report": final}
    observe = _wire(service, "observe", sid, observations=STREAM[:1])
    assert observe["ok"] is False and observe["code"] == "error"
    assert "is finished; no further observations" in observe["error"]
    assert _wire(service, "finish", sid) == {"ok": True}
    reopen = _wire(
        service, "open", sid, num_processes=2, queries=[["both", [0, 1]]]
    )
    assert reopen["ok"] is False and reopen["code"] == "error"
    assert "already open" in reopen["error"]


@pytest.mark.timeout(120)
class TestEvictionAtClose:
    def test_final_report_survives_worker_crash(self):
        comp = build_crash_restart_lock_scenario(seed=5)
        stream = observation_stream(comp, [2, 3], variable="holds_lock")
        service = MonitorService(workers=1, checkpoint_every=2)
        try:
            service.open_session("mx", comp.num_processes, [("lock", [2, 3])])
            service.submit("mx", stream)
            final = service.close_session("mx", timeout_s=10.0)
            assert final["closed"] and final["verdicts"] == {
                "lock": "detected"
            }
            service.kill_worker(0)
            _wait_restarted(service, 0)
            assert service.stats()["counts"]["worker_restarts"] == 1
            assert service.session_report("mx") == final
            assert service.close_session("mx") == final
            assert final["epoch"] == 0 and final["counts"]["restarts"] == 0
        finally:
            service.shutdown(timeout_s=5.0)

    def test_closed_sessions_are_released(self):
        service = MonitorService(workers=2)
        refs = []
        finals = {}
        gc.disable()
        try:
            for i in range(300):
                sid = f"s{i:03d}"
                _open(service, sid)
                refs.append(weakref.ref(service._sessions[sid]))
                service.submit(sid, STREAM)
                finals[sid] = service.close_session(sid, timeout_s=10.0)
                assert (
                    len(service._closed_reports)
                    <= supervisor._CLOSED_REPORTS_CAP
                )
            stats = service.stats()
            assert stats["sessions"] == 0
            assert stats["open_sessions"] == 0
            assert stats["closed_reports"] == 300
            assert stats["counts"]["sessions_closed"] == 300
            assert all(not slot.sessions for slot in service._slots)
            # Only a worker's loop variable may still hold its last one.
            alive = [ref for ref in refs if ref() is not None]
            assert len(alive) <= service.num_workers, len(alive)
        finally:
            gc.enable()
            service.shutdown(timeout_s=5.0)
        for sid in ("s000", "s150", "s299"):
            final = finals[sid]
            assert final["closed"] and final["finished"]
            assert final["verdicts"] == {"both": "detected"}

    def test_post_close_answers_are_unchanged(self):
        service = MonitorService(workers=2)
        try:
            final = _lifecycle(service, "done")
            assert service.stats()["sessions"] == 0
            _assert_closed_answers(service, "done", final)
        finally:
            service.shutdown(timeout_s=5.0)

    def test_oldest_report_falls_off_the_cap(self, monkeypatch):
        monkeypatch.setattr(supervisor, "_CLOSED_REPORTS_CAP", 4)
        service = MonitorService(workers=2)
        try:
            finals = {}
            for i in range(6):
                finals[f"c{i}"] = _lifecycle(service, f"c{i}")
                assert service.stats()["closed_reports"] == min(i + 1, 4)
            for sid in ("c0", "c1"):
                with pytest.raises(UnknownSession):
                    service.session_report(sid)
                with pytest.raises(UnknownSession):
                    service.close_session(sid)
                with pytest.raises(UnknownSession):
                    service.submit(sid, STREAM[:1])
                for op in ("status", "close", "finish"):
                    assert _wire(service, op, sid)["code"] == "unknown-session"
            for sid in ("c2", "c3", "c4", "c5"):
                _assert_closed_answers(service, sid, finals[sid])
            # A forgotten id is free again: a whole new lifecycle.
            again = _lifecycle(service, "c0")
            assert again["verdicts"] == finals["c0"]["verdicts"]
            assert service.session_report("c0") == again
            assert service.stats()["closed_reports"] == 4
            with pytest.raises(UnknownSession):
                service.session_report("c2")
        finally:
            service.shutdown(timeout_s=5.0)

    def test_drain_reports_sessions_closed_before_and_during(self):
        service = MonitorService(workers=2)
        try:
            early = _lifecycle(service, "early")
            _open(service, "late")
            service.submit("late", STREAM)
            summary = service.drain(timeout_s=10.0)
            assert summary["sessions_closed"] == 1
            assert summary["counts"]["drains"] == 1
            assert service.session_report("early") == early
            late = service.session_report("late")
            assert late["closed"] and late["verdicts"] == {"both": "detected"}
            assert service.stats()["sessions"] == 0
        finally:
            service.shutdown(timeout_s=5.0)
