"""Tests for the command-line interface."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main
from repro.trace import dump_computation


@pytest.fixture
def trace_path(tmp_path, figure2):
    path = tmp_path / "figure2.json"
    dump_computation(figure2, path)
    return str(path)


class TestDetect:
    def test_possibly_hit(self, trace_path, capsys):
        code = main(["detect", trace_path, "x@0 & x@3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["holds"] is True
        assert payload["algorithm"] == "cpdhb"
        assert payload["witness_frontier"] == [2, 1, 1, 2]

    def test_possibly_miss_exit_code(self, trace_path, capsys):
        code = main(["detect", trace_path, "x@0 & missing@1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["holds"] is False

    def test_definitely_modality(self, trace_path, capsys):
        code = main(
            ["detect", trace_path, "sum(x) >= 0", "--modality", "definitely"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["modality"] == "definitely"

    def test_count_predicate(self, trace_path, capsys):
        code = main(["detect", trace_path, "count(x) == 2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["algorithm"] == "symmetric-unit-step"

    def test_witness_values(self, trace_path, capsys):
        main(["detect", trace_path, "x@0", "--show-witness-values"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness_values"][0]["x"] is True

    def test_count_witnesses(self, trace_path, capsys):
        main(["detect", trace_path, "x@0 & x@3", "--count-witnesses"])
        payload = json.loads(capsys.readouterr().out)
        # (2,*,*,2) frontiers: x true on 0 and 3; p1/p2 free modulo f->g.
        assert payload["witness_count"] == 3


class TestGenerate:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "random.json"
        code = main(
            [
                "generate",
                "--processes", "3",
                "--events", "5",
                "--seed", "9",
                "--bool", "x",
                "--walk", "v",
                "-o", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        detect_code = main(["detect", str(out), "sum(v) >= 0"])
        assert detect_code in (0, 1)

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(
                ["generate", "--processes", "2", "--events", "4",
                 "--seed", "5", "--bool", "x", "-o", str(path)]
            )
        assert a.read_text() == b.read_text()


class TestSimulate:
    @pytest.mark.parametrize(
        "protocol",
        ["token-ring", "leader-election", "primary-backup", "resource-pool"],
    )
    def test_protocols_dump_valid_traces(self, tmp_path, capsys, protocol):
        out = tmp_path / "trace.json"
        code = main(
            ["simulate", protocol, "--processes", "4", "--rounds", "3",
             "--seed", "2", "-o", str(out)]
        )
        assert code == 0
        capsys.readouterr()  # drop the simulate banner
        info_code = main(["info", str(out)])
        assert info_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["processes"] >= 2

    def test_rogue_flag(self, tmp_path, capsys):
        out = tmp_path / "ring.json"
        main(
            ["simulate", "token-ring", "--processes", "4", "--rounds", "5",
             "--seed", "1", "--rogue", "2", "-o", str(out)]
        )
        capsys.readouterr()
        code = main(["detect", str(out), "cs@0 & cs@2"])
        # The rogue process usually collides with someone; accept either
        # outcome but require valid JSON output.
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "cpdhb"


class TestInfo:
    def test_summary_fields(self, trace_path, capsys):
        code = main(["info", trace_path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["processes"] == 4
        assert payload["events"] == 4
        assert payload["consistent_cuts"] == 12
        assert payload["variables"] == ["x"]

    def test_lattice_limit(self, trace_path, capsys):
        main(["info", trace_path, "--lattice-limit", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert "consistent_cuts" not in payload

    def test_deep_info(self, trace_path, capsys):
        code = main(["info", trace_path, "--deep"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["concurrency_width"] == 3
        assert payload["variables"]["x"]["unit_step"] is True
        assert 0 <= payload["causal_density"] <= 1


class TestSimulateFaults:
    def test_faults_flag(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps({"seed": 7, "message_loss": 0.3,
                        "message_duplication": 0.1})
        )
        out = tmp_path / "lossy.json"
        code = main(
            ["simulate", "token-ring", "--processes", "4", "--rounds", "6",
             "--seed", "3", "--faults", str(plan), "-o", str(out)]
        )
        assert code == 0
        banner = capsys.readouterr().out
        assert "faults:" in banner
        payload = json.loads(out.read_text())
        assert payload["meta"]["faults"]["plan"]["message_loss"] == 0.3
        assert payload["meta"]["faults"]["counts"]

    def test_profile_shows_fault_counters(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"seed": 7, "message_loss": 0.5}))
        out = tmp_path / "lossy.json"
        code = main(
            ["simulate", "token-ring", "--processes", "4", "--rounds", "6",
             "--faults", str(plan), "--profile", "-o", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "sim.faults.loss" in captured.err
        assert "sim.run" in captured.err

    def test_lock_server_crash_restart_demo(self, tmp_path, capsys):
        out = tmp_path / "mx.json"
        code = main(
            ["simulate", "lock-server", "--variant", "crash-restart",
             "-o", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        detect_code = main(["detect", str(out), "holds_lock@2 & holds_lock@3"])
        payload = json.loads(capsys.readouterr().out)
        assert detect_code == 0
        assert payload["holds"] is True

    def test_lock_server_deadlock_variant(self, tmp_path, capsys):
        out = tmp_path / "locks.json"
        code = main(
            ["simulate", "lock-server", "--conflicting-order",
             "-o", str(out)]
        )
        assert code == 0


class TestErrorExitCodes:
    def test_predicate_syntax_error(self, trace_path, capsys):
        code = main(["detect", trace_path, "x@0 &"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro: bad predicate:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("modality", ["possibly", "definitely"])
    def test_predicate_naming_absent_process(
        self, trace_path, capsys, modality
    ):
        # Figure 2 has processes 0..3: process 9 is the predicate's fault,
        # not the trace's.
        code = main(
            ["detect", trace_path, "(x@0 | x@1) & (x@2 | x@9)",
             "--modality", modality]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro: bad predicate: process 9")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("modality", ["possibly", "definitely"])
    @pytest.mark.parametrize("sender", ["5", "-1"])
    def test_inflight_naming_absent_sender(
        self, trace_path, capsys, modality, sender
    ):
        code = main(
            ["detect", trace_path, f"inflight({sender}) == 0",
             "--modality", modality]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(
            f"repro: bad predicate: process {sender} out of range"
        )
        assert "Traceback" not in captured.err

    def test_parallel_option_is_gone(self, trace_path, capsys):
        # The combination driver picks its own worker count.
        with pytest.raises(SystemExit) as exc:
            main(["detect", trace_path, "x@0", "--parallel", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --parallel" in capsys.readouterr().err

    def test_missing_trace(self, tmp_path, capsys):
        code = main(["detect", str(tmp_path / "missing.json"), "x@0"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("repro: bad trace:")
        assert "missing.json" in captured.err

    def test_invalid_json_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["info", str(bad)])
        captured = capsys.readouterr()
        assert code == 3
        assert "invalid JSON" in captured.err

    def test_malformed_trace_payload(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "other"}))
        code = main(["detect", str(bad), "x@0"])
        captured = capsys.readouterr()
        assert code == 3
        assert "unsupported trace format" in captured.err

    def test_bad_fault_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"message_loss": 2.0}))
        code = main(
            ["simulate", "token-ring", "--faults", str(plan),
             "-o", str(tmp_path / "out.json")]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.startswith("repro: bad fault plan:")

    def test_fault_plan_process_out_of_range(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps({"crashes": [{"process": 99, "at": 1.0}]})
        )
        code = main(
            ["simulate", "token-ring", "--processes", "4",
             "--faults", str(plan), "-o", str(tmp_path / "out.json")]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert "process 99" in captured.err

    @pytest.mark.parametrize(
        "module, name, code, prefix",
        [
            ("repro.simulation", "FaultPlanError", 4, "bad fault plan"),
            ("repro.analysis", "AnalysisError", 6, "lint failed"),
            ("repro.simulation", "SimulationError", 4, "simulation failed"),
            ("repro.monitor", "MonitorError", 5, "monitor failed"),
            ("repro.service", "ServiceError", 8, "service failed"),
        ],
    )
    def test_subsystem_error_exit_codes(
        self, module, name, code, prefix, trace_path, monkeypatch, capsys
    ):
        # The dispatcher matches these classes without importing their
        # subsystems; raise each from a command to pin code and prefix.
        error = getattr(importlib.import_module(module), name)

        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_info", fail)
        assert main(["info", trace_path]) == code
        assert capsys.readouterr().err == f"repro: {prefix}: boom\n"

    def test_plain_value_error_exits_two(self, trace_path, monkeypatch, capsys):
        def fail(args):
            raise ValueError("no such family")

        monkeypatch.setattr(cli, "_cmd_info", fail)
        assert main(["info", trace_path]) == 2
        assert capsys.readouterr().err == "repro: no such family\n"

    def test_unmapped_error_propagates_unchanged(self, trace_path, monkeypatch):
        raised = RuntimeError("not a user error")

        def fail(args):
            raise raised

        monkeypatch.setattr(cli, "_cmd_info", fail)
        with pytest.raises(RuntimeError) as info:
            main(["info", trace_path])
        assert info.value is raised


class TestLint:
    REPO = Path(__file__).resolve().parents[1]
    FIXTURES = REPO / "tests" / "fixtures" / "analysis"
    DOCS_ROOT = str(FIXTURES / "docs")

    def test_clean_path_exits_zero(self, capsys):
        code = main(
            ["lint", str(self.FIXTURES / "clean.py"),
             "--docs-root", self.DOCS_ROOT]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "0 finding(s) in 1 file(s)" in captured.out

    def test_findings_exit_one(self, capsys):
        code = main(
            ["lint", str(self.FIXTURES / "det_violations.py"),
             "--docs-root", self.DOCS_ROOT]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "DET101(unseeded-random)" in captured.out

    def test_json_format(self, capsys):
        code = main(
            ["lint", str(self.FIXTURES / "det_violations.py"),
             "--format", "json", "--docs-root", self.DOCS_ROOT]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert {f["code"] for f in payload["findings"]} >= {"DET101"}
        assert payload["files_checked"] == 1

    def test_select_narrows_run(self, capsys):
        code = main(
            ["lint", str(self.FIXTURES / "det_violations.py"),
             "--select", "DET101,DET102", "--format", "json",
             "--docs-root", self.DOCS_ROOT]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert {f["code"] for f in payload["findings"]} == {
            "DET101", "DET102"
        }

    def test_unknown_rule_exits_six(self, capsys):
        code = main(
            ["lint", str(self.FIXTURES / "clean.py"),
             "--select", "DET999", "--docs-root", self.DOCS_ROOT]
        )
        captured = capsys.readouterr()
        assert code == 6
        assert captured.err.startswith("repro: lint failed:")
        assert "unknown rule" in captured.err

    def test_missing_path_exits_six(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "nowhere"),
                     "--docs-root", self.DOCS_ROOT])
        captured = capsys.readouterr()
        assert code == 6
        assert "no such file or directory" in captured.err

    def test_missing_docs_root_exits_six(self, tmp_path, capsys):
        code = main(
            ["lint", str(self.FIXTURES / "clean.py"),
             "--docs-root", str(tmp_path / "nodocs")]
        )
        captured = capsys.readouterr()
        assert code == 6
        assert "canonical-key docs not found" in captured.err
