"""Tests for the run ledger: repro.obs.ledger and `repro runs`.

The autouse conftest fixture sets ``REPRO_RUNS=off`` so ordinary CLI
tests never write a ledger; these tests opt back in per invocation with
the root ``--runs-ledger PATH`` flag (flag beats environment).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import ledger
from repro.trace import dump_computation


@pytest.fixture
def trace_path(tmp_path, figure2):
    path = tmp_path / "figure2.json"
    dump_computation(figure2, path)
    return str(path)


@pytest.fixture
def ledger_path(tmp_path):
    return str(tmp_path / "runs.jsonl")


def run_recorded(ledger_path, argv):
    """Run the CLI with the ledger enabled; return (exit code, records)."""
    code = main(["--runs-ledger", ledger_path] + argv)
    return code, ledger.read_records(ledger_path)


class TestPathResolution:
    def test_flag_beats_env_beats_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNS", raising=False)
        assert ledger.resolve_ledger_path(None) == ledger.DEFAULT_LEDGER
        monkeypatch.setenv("REPRO_RUNS", "/tmp/env.jsonl")
        assert ledger.resolve_ledger_path(None) == "/tmp/env.jsonl"
        assert ledger.resolve_ledger_path("/tmp/flag.jsonl") == "/tmp/flag.jsonl"

    @pytest.mark.parametrize("off", ["off", "0", "none", "disabled", "OFF", ""])
    def test_off_values_disable(self, off, monkeypatch):
        assert ledger.resolve_ledger_path(off) is None
        monkeypatch.setenv("REPRO_RUNS", off)
        assert ledger.resolve_ledger_path(None) is None

    def test_fingerprint_is_stable_and_arg_sensitive(self):
        a = ledger.fingerprint_args("detect", ["t.json", "x@0"])
        assert a == ledger.fingerprint_args("detect", ["t.json", "x@0"])
        assert a != ledger.fingerprint_args("detect", ["t.json", "x@1"])
        assert len(a) == 16


class TestAppendReadValidate:
    def _record(self, **overrides):
        record = {
            "command": "detect",
            "argv": ["t.json", "x@0"],
            "args_fingerprint": ledger.fingerprint_args(
                "detect", ["t.json", "x@0"]
            ),
            "started_at": "2026-01-01T00:00:00Z",
            "wall_ms": 1.5,
            "cpu_ms": 1.0,
            "exit_code": 0,
            "verdict": "holds",
            "trace": None,
            "stats": {"advances": 2},
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            "spans": [],
            "extra": {},
        }
        record.update(overrides)
        return record

    def test_append_assigns_schema_and_sequential_ids(self, ledger_path):
        first = ledger.append_record(ledger_path, self._record())
        second = ledger.append_record(ledger_path, self._record())
        assert first["schema"] == ledger.RUN_SCHEMA == "repro-run-v1"
        assert first["id"].startswith("000001-")
        assert second["id"].startswith("000002-")
        records = ledger.read_records(ledger_path)
        assert [r["id"] for r in records] == [first["id"], second["id"]]

    def test_lines_are_sorted_single_line_json(self, ledger_path):
        ledger.append_record(ledger_path, self._record())
        (line,) = open(ledger_path).read().splitlines()
        parsed = json.loads(line)
        assert list(parsed) == sorted(parsed)

    def test_read_rejects_invalid_json(self, ledger_path):
        with open(ledger_path, "w") as handle:
            handle.write("{not json\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            ledger.read_records(ledger_path)

    def test_read_rejects_missing_field(self, ledger_path):
        broken = dict(
            self._record(), schema=ledger.RUN_SCHEMA, id="000001-deadbeef"
        )
        del broken["wall_ms"]
        with open(ledger_path, "w") as handle:
            handle.write(json.dumps(broken) + "\n")
        with pytest.raises(ValueError, match="wall_ms"):
            ledger.read_records(ledger_path)

    def test_validate_rejects_wrong_schema(self):
        record = self._record(schema="repro-run-v0", id="000001-deadbeef")
        with pytest.raises(ValueError, match="schema"):
            ledger.validate_record(record)


class TestResolveRef:
    RECORDS = [
        {"id": "000001-aaaa0000"},
        {"id": "000002-bbbb0000"},
        {"id": "000003-cccc0000"},
    ]

    def test_last_prev_and_indices(self):
        assert ledger.resolve_ref(self.RECORDS, "last")["id"].startswith("000003")
        assert ledger.resolve_ref(self.RECORDS, "prev")["id"].startswith("000002")
        assert ledger.resolve_ref(self.RECORDS, "1")["id"].startswith("000001")
        assert ledger.resolve_ref(self.RECORDS, "-1")["id"].startswith("000003")
        assert ledger.resolve_ref(self.RECORDS, "-3")["id"].startswith("000001")

    def test_id_prefix(self):
        assert ledger.resolve_ref(self.RECORDS, "000002")["id"].startswith(
            "000002"
        )

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            ledger.resolve_ref([], "last")
        with pytest.raises(ValueError, match="1-based"):
            ledger.resolve_ref(self.RECORDS, "0")
        with pytest.raises(ValueError, match="out of range"):
            ledger.resolve_ref(self.RECORDS, "9")
        with pytest.raises(ValueError, match="no run record"):
            ledger.resolve_ref(self.RECORDS, "zzz")
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.resolve_ref([{"id": "abc1"}, {"id": "abc2"}], "abc")
        with pytest.raises(ValueError, match="previous"):
            ledger.resolve_ref(self.RECORDS[:1], "prev")


class TestDiff:
    def test_diff_shows_only_changed_entries(self):
        base = {
            "id": "000001-aaaa0000", "command": "detect", "verdict": "holds",
            "wall_ms": 10.0, "cpu_ms": 8.0,
            "stats": {"advances": 4, "chains": 2},
            "metrics": {
                "counters": {"detect.queries": 1, "engine.cpdhb.advances": 4},
                "gauges": {"engine.chains": 2},
                "histograms": {
                    "span.scan.cpdhb.ms": {"count": 4, "mean": 0.2, "p95": 0.4}
                },
            },
        }
        other = json.loads(json.dumps(base))
        other.update(id="000002-aaaa0000", wall_ms=6.0, verdict="not-holds")
        other["stats"]["advances"] = 1
        other["metrics"]["counters"]["engine.cpdhb.advances"] = 1
        diff = ledger.diff_records(base, other)
        assert diff["wall_ms"]["delta"] == pytest.approx(-4.0)
        assert diff["stats"] == {
            "advances": {"a": 4, "b": 1, "delta": -3}
        }
        assert list(diff["counters"]) == ["engine.cpdhb.advances"]
        assert diff["gauges"] == {}
        assert diff["histograms"] == {}
        text = ledger.format_diff(diff)
        assert "000001" in text and "000002" in text
        assert "holds -> not-holds" in text
        assert "advances  4 -> 1 (-3)" in text

    def test_diff_without_deltas_says_so(self):
        record = {
            "id": "000001-aaaa0000", "command": "info", "verdict": None,
            "wall_ms": 1.0, "cpu_ms": 1.0, "stats": {}, "metrics": {},
        }
        text = ledger.format_diff(ledger.diff_records(record, record))
        assert "no metric deltas" in text


class TestEveryCommandAppendsOneRecord:
    """Acceptance: each CLI invocation appends exactly one valid record."""

    def check(self, ledger_path, argv, command, expect_code=0):
        code, records = run_recorded(ledger_path, argv)
        assert code == expect_code
        assert len(records) == 1
        record = records[0]
        ledger.validate_record(record)
        assert record["command"] == command
        # argv is the raw invocation, root flags included.
        assert record["argv"] == ["--runs-ledger", ledger_path] + argv
        assert record["exit_code"] == code
        return record

    def test_detect(self, trace_path, ledger_path):
        record = self.check(
            ledger_path, ["detect", trace_path, "x@0 & x@3"], "detect"
        )
        assert record["verdict"] == "holds"
        assert record["trace"]["path"] == trace_path
        assert record["trace"]["digest"].startswith("sha256:")
        assert record["stats"]  # engine stats captured
        # Metrics are captured even without --profile.
        assert record["metrics"]["counters"].get("detect.queries") == 1
        assert any(s["name"] == "detect.query" for s in record["spans"])

    def test_detect_miss_records_exit_1(self, trace_path, ledger_path):
        record = self.check(
            ledger_path, ["detect", trace_path, "x@0 & missing@1"],
            "detect", expect_code=1,
        )
        assert record["verdict"] == "not-holds"

    def test_profile(self, trace_path, ledger_path):
        self.check(
            ledger_path, ["profile", trace_path, "x@0", "--repeat", "2"],
            "profile",
        )

    def test_generate(self, tmp_path, ledger_path):
        out = str(tmp_path / "gen.json")
        record = self.check(
            ledger_path,
            ["generate", "--processes", "3", "--events", "6",
             "--bool", "x", "--seed", "7", "-o", out],
            "generate",
        )
        assert record["trace"]["path"] == out
        assert record["trace"]["digest"].startswith("sha256:")

    def test_simulate(self, tmp_path, ledger_path):
        out = str(tmp_path / "ring.json")
        self.check(
            ledger_path,
            ["simulate", "token-ring", "--processes", "3",
             "--rounds", "2", "-o", out],
            "simulate",
        )

    def test_fuzz(self, ledger_path):
        record = self.check(
            ledger_path,
            ["fuzz", "--seed", "3", "--iterations", "2", "--no-shrink"],
            "fuzz",
        )
        assert record["verdict"] == "agreed"

    def test_info(self, trace_path, ledger_path):
        self.check(ledger_path, ["info", trace_path], "info")

    def test_render(self, trace_path, tmp_path, ledger_path):
        out = str(tmp_path / "trace.dot")
        self.check(ledger_path, ["render", trace_path, "-o", out], "render")

    def test_lint(self, tmp_path, ledger_path):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        self.check(ledger_path, ["lint", str(clean)], "lint")

    def test_usage_error_still_records(self, trace_path, ledger_path):
        record = self.check(
            ledger_path, ["detect", trace_path, "x@@@"], "detect",
            expect_code=2,
        )
        assert record["exit_code"] == 2

    def test_runs_command_itself_is_not_recorded(
        self, trace_path, ledger_path, capsys
    ):
        run_recorded(ledger_path, ["info", trace_path])
        code = main(["runs", "list", "--ledger", ledger_path])
        assert code == 0
        assert len(ledger.read_records(ledger_path)) == 1

    def test_no_runs_ledger_flag_disables(self, trace_path, tmp_path):
        path = tmp_path / "runs.jsonl"
        code = main(
            ["--runs-ledger", str(path), "--no-runs-ledger",
             "info", trace_path]
        )
        assert code == 0
        assert not path.exists()

    def test_unwritable_ledger_warns_but_keeps_exit_code(
        self, trace_path, tmp_path, capsys
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        bad = str(blocker / "runs.jsonl")
        code = main(["--runs-ledger", bad, "info", trace_path])
        captured = capsys.readouterr()
        assert code == 0
        assert "could not append run record" in captured.err


class TestRunsSubcommand:
    @pytest.fixture
    def two_records(self, trace_path, ledger_path):
        run_recorded(ledger_path, ["detect", trace_path, "x@0 & x@3"])
        run_recorded(ledger_path, ["detect", trace_path, "x@0 & missing@1"])
        return ledger_path

    def test_list(self, two_records, capsys):
        assert main(["runs", "list", "--ledger", two_records]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("000001-")
        assert "command" not in lines[0]  # record rows, not a header
        assert "verdict=holds" in lines[0]
        assert "verdict=not-holds" in lines[1]

    def test_list_limit(self, two_records, capsys):
        assert main(["runs", "list", "-n", "1", "--ledger", two_records]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("000002-")

    def test_show_by_index_and_prefix(self, two_records, capsys):
        assert main(["runs", "show", "1", "--ledger", two_records]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["id"].startswith("000001-")
        assert main(
            ["runs", "show", record["id"][:6], "--ledger", two_records]
        ) == 0
        assert json.loads(capsys.readouterr().out)["id"] == record["id"]

    def test_last(self, two_records, capsys):
        assert main(["runs", "last", "--ledger", two_records]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["id"].startswith("000002-")

    def test_last_otlp_round_trips(self, two_records, capsys):
        from repro.obs.export import otlp_to_spans

        assert main(["runs", "last", "--otlp", "--ledger", two_records]) == 0
        payload = capsys.readouterr().out.strip()
        roots = otlp_to_spans(payload)
        assert [r.name for r in roots] == ["detect.query"]

    def test_diff_defaults_to_prev_last(self, two_records, capsys):
        assert main(["runs", "diff", "--ledger", two_records]) == 0
        out = capsys.readouterr().out
        assert out.startswith("runs diff: 000001-")
        assert "verdict: holds -> not-holds" in out

    def test_diff_explicit_refs(self, two_records, capsys):
        assert main(["runs", "diff", "-1", "-2", "--ledger", two_records]) == 0
        assert "verdict: not-holds -> holds" in capsys.readouterr().out

    def test_diff_wrong_ref_count(self, two_records, capsys):
        assert main(["runs", "diff", "last", "--ledger", two_records]) == 2
        assert "exactly two" in capsys.readouterr().err

    def test_bad_ref(self, two_records, capsys):
        assert main(["runs", "show", "zzz", "--ledger", two_records]) == 2

    def test_disabled_ledger_is_an_error(self, capsys):
        # conftest sets REPRO_RUNS=off; no --ledger override here.
        assert main(["runs", "list"]) == 2
        assert "disabled" in capsys.readouterr().err


class TestBenchmarkLedger:
    def test_report_appends_bench_record(self, tmp_path, capsys):
        import report

        path = str(tmp_path / "bench.jsonl")
        code = report.main(["T-sym", "--ledger", path])
        assert code == 0
        (record,) = ledger.read_records(path)
        assert record["command"] == "bench"
        assert record["verdict"] == "ok"
        assert record["stats"]["experiments"] == 1
        assert record["stats"]["regressions"] == 0
        assert record["stats"]["wall.T-sym"] > 0

    def gate(self, monkeypatch, tmp_path, capsys, baseline):
        """Gate two experiments — "slow" with a median of 50 ms (mean
        214 ms), "fast" with 5 ms per pass — against ``baseline``;
        returns (exit code, output, ledger record)."""
        import report

        assert report.PASSES == 5
        slow = iter([999.0, 10.0, 50.0, 900.0, 50.0, 60.0])  # warm-up first
        monkeypatch.setattr(report, "EXPERIMENTS", {
            "slow": lambda t: t.record(next(slow)),
            "fast": lambda t: t.record(5.0),
        })
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"experiments": {
            exp_id: {"wall_time_ms": ms} for exp_id, ms in baseline.items()
        }}))
        runs = str(tmp_path / "runs.jsonl")
        code = report.main(["--baseline", str(path), "--ledger", runs])
        (record,) = ledger.read_records(runs)
        return code, capsys.readouterr().out, record

    def test_gate_fails_above_bound_and_skips_floor(
        self, monkeypatch, tmp_path, capsys
    ):
        # slow: 50 / 24 > 2x, above the floor; fast: 5 / 1, under it.
        code, out, record = self.gate(
            monkeypatch, tmp_path, capsys, {"slow": 24.0, "fast": 1.0}
        )
        assert code == 1
        assert "REGRESSION" in out and "skipped (noise floor)" in out
        assert record["verdict"] == "regressions"
        assert record["stats"]["regressions"] == 1

    def test_gate_passes_within_bound(self, monkeypatch, tmp_path, capsys):
        code, out, record = self.gate(
            monkeypatch, tmp_path, capsys, {"slow": 26.0}
        )
        assert code == 0
        assert "no baseline" in out and "REGRESSION" not in out
        assert record["stats"]["wall.slow"] == 50.0
        assert record["stats"]["wall.fast"] == 5.0
