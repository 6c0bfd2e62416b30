"""Tests for the repro.analysis lint subsystem.

Mutation-style self-test: ``tests/fixtures/analysis/`` plants at least
one violation per shipped rule, and this module asserts each rule fires
with the right rule-id, line number, and severity.  The self-clean test
then asserts the real tree (``src/repro`` + ``examples``) lints clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisError,
    LintConfig,
    Severity,
    all_rules,
    render_json,
    render_text,
    run_lint,
)
from repro.analysis.lint.core import parse_suppressions, resolve_rule_ids
from repro.analysis.lint.engine import collect_files
from repro.analysis.lint.keys import (
    HOLE,
    KeyPattern,
    key_from_ast,
    load_canonical_keys,
)

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "analysis"
FIXTURE_DOCS = [
    str(FIXTURES / "docs" / "ALGORITHMS.md"),
    str(FIXTURES / "docs" / "OBSERVABILITY.md"),
]
REAL_DOCS = [
    str(REPO / "docs" / "ALGORITHMS.md"),
    str(REPO / "docs" / "OBSERVABILITY.md"),
]


def lint_fixture(*names, **config_kwargs):
    config_kwargs.setdefault("docs_paths", FIXTURE_DOCS)
    paths = [str(FIXTURES / name) for name in names]
    return run_lint(paths, LintConfig(**config_kwargs))


# ----------------------------------------------------------------------
# Planted violations: every rule fires at the expected location
# ----------------------------------------------------------------------
PLANTED = {
    "det_violations.py": [
        ("DET101", 10),
        ("DET102", 14),
        ("DET103", 18),
        ("DET103", 23),
        ("DET104", 29),
        ("DET105", 33),
    ],
    "cls_violations.py": [
        ("CLS401", 5),
        ("CLS401", 10),
        ("CLS402", 16),
    ],
    "proto_violations.py": [
        ("PROT201", 12),
        ("PROT202", 19),
        ("DET101", 20),
        ("PROT204", 20),
        ("DET102", 25),
        ("PROT204", 25),
        ("PROT203", 27),
        ("PROT203", 27),
    ],
    "detection/obs_violations.py": [
        ("OBS301", 9),
        ("OBS302", 15),
        ("OBS302", 20),
        ("OBS303", 24),
    ],
}


class TestPlantedViolations:
    @pytest.mark.parametrize("fixture", sorted(PLANTED))
    def test_expected_findings(self, fixture):
        report = lint_fixture(fixture)
        got = sorted((f.code, f.line) for f in report.findings)
        assert got == sorted(PLANTED[fixture])

    @pytest.mark.parametrize("fixture", sorted(PLANTED))
    def test_findings_are_errors(self, fixture):
        report = lint_fixture(fixture)
        assert report.findings
        for finding in report.findings:
            assert finding.severity is Severity.ERROR
            assert finding.path.endswith(fixture.split("/")[-1])
            assert finding.message

    def test_every_shipped_rule_fires(self, tmp_path):
        """Each registered rule is triggered by at least one fixture."""
        report = lint_fixture(*sorted(PLANTED))
        fired = {f.code for f in report.findings}
        # GEN001 needs an unparseable file, exercised separately below.
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        gen = run_lint([str(bad)], LintConfig(docs_paths=FIXTURE_DOCS))
        fired |= {f.code for f in gen.findings}
        assert fired == {rule.code for rule in all_rules()}

    def test_parse_error_reported_as_gen001(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        report = run_lint([str(bad)], LintConfig(docs_paths=FIXTURE_DOCS))
        (finding,) = report.findings
        assert finding.code == "GEN001"
        assert finding.line == 1
        assert finding.severity is Severity.ERROR

    def test_clean_fixture_has_no_findings(self):
        report = lint_fixture("clean.py")
        assert report.ok
        assert report.suppressed == 0


class TestSuppressions:
    def test_suppressed_fixture_is_quiet(self):
        report = lint_fixture("suppressed.py")
        assert report.ok
        # DET101 (line pragma), DET103 (slug pragma), DET102 (file-wide).
        assert report.suppressed == 3

    def test_line_pragma_parses_codes_and_slugs(self):
        sup = parse_suppressions(
            ["x = 1  # repro: lint-ignore[DET101, unsorted-set-iteration]"]
        )
        assert sup.by_line[1] == {"det101", "unsorted-set-iteration"}
        assert not sup.file_wide

    def test_file_pragma(self):
        sup = parse_suppressions(["# repro: lint-ignore-file[OBS302]"])
        assert sup.file_wide == {"obs302"}


class TestSelfClean:
    def test_repo_tree_lints_clean(self):
        """Acceptance gate: `repro lint src/repro examples` is clean."""
        report = run_lint(
            [str(REPO / "src" / "repro"), str(REPO / "examples")],
            LintConfig(docs_paths=REAL_DOCS, require_docs=True),
        )
        assert report.findings == []
        assert not report.docs_skipped
        assert report.files_checked > 100


class TestDocsConformance:
    def test_real_docs_parse_to_canonical_keys(self):
        keys = load_canonical_keys(REAL_DOCS)
        assert keys.match_span(["engine", "cpdhb"]) is not None
        assert keys.match_metric(["monitor", "gaps"]) is not None
        assert keys.match_metric(["engine", "cpdhb", "advances"]) is not None
        assert keys.match_metric(["perf", "slice", "reduction"]) is not None
        # Engine stats come only from the ALGORITHMS.md table now; an
        # undocumented stat key must not match.
        assert keys.match_metric(["engine", "cpdhb", "bogus"]) is None

    def test_docs_drift_fails_lint(self, tmp_path):
        """Deleting a documented key row makes the code-side use fail."""
        algorithms = Path(REAL_DOCS[0]).read_text(encoding="utf-8")
        observability = "\n".join(
            line
            for line in Path(REAL_DOCS[1])
            .read_text(encoding="utf-8")
            .splitlines()
            if "`monitor.gaps`" not in line
        )
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "ALGORITHMS.md").write_text(algorithms, encoding="utf-8")
        (docs / "OBSERVABILITY.md").write_text(
            observability, encoding="utf-8"
        )
        report = run_lint(
            [str(REPO / "src" / "repro" / "monitor" / "online.py")],
            LintConfig(
                docs_paths=[
                    str(docs / "ALGORITHMS.md"),
                    str(docs / "OBSERVABILITY.md"),
                ]
            ),
        )
        assert any(
            f.code == "OBS302" and "monitor.gaps" in f.message
            for f in report.findings
        )

    def test_docs_skipped_when_undiscoverable(self, tmp_path, monkeypatch):
        target = tmp_path / "mod.py"
        target.write_text("X = 1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        report = run_lint([str(target)], LintConfig())
        assert report.docs_skipped
        assert report.ok

    def test_require_docs_raises_when_undiscoverable(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "mod.py"
        target.write_text("X = 1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(AnalysisError, match="cannot locate"):
            run_lint([str(target)], LintConfig(require_docs=True))


class TestKeyPatterns:
    def pattern(self, raw):
        return KeyPattern(
            raw=raw, segments=tuple(raw.split(".")), source="test:1"
        )

    def test_literal_match(self):
        assert self.pattern("monitor.gaps").matches(["monitor", "gaps"])
        assert not self.pattern("monitor.gaps").matches(["monitor"])

    def test_placeholder_matches_one_segment(self):
        pattern = self.pattern("sim.steps.<kind>")
        assert pattern.matches(["sim", "steps", "deliver"])
        assert not pattern.matches(["sim", "steps", "a", "b"])

    def test_alternation(self):
        pattern = self.pattern("perf.clause_cache.{hits,misses}")
        assert pattern.matches(["perf", "clause_cache", "hits"])
        assert pattern.matches(["perf", "clause_cache", "misses"])
        assert not pattern.matches(["perf", "clause_cache", "evictions"])

    def test_trailing_star_matches_one_or_more(self):
        pattern = self.pattern("perf.*")
        assert pattern.matches(["perf", "slice", "reduction"])
        assert not pattern.matches(["perf"])

    def test_hole_absorbs_pattern_segments(self):
        pattern = self.pattern("sim.steps.<kind>")
        assert pattern.matches(["sim", HOLE])
        assert pattern.matches(["sim", "steps", HOLE])
        assert not pattern.matches(["monitor", HOLE])

    def test_key_from_ast(self):
        import ast

        def first_arg(src):
            call = ast.parse(src, mode="eval").body
            return key_from_ast(call.args[0])

        assert first_arg('f("a.b.c")') == ["a", "b", "c"]
        assert first_arg('f(f"sim.steps.{kind}")') == ["sim", "steps", HOLE]
        assert first_arg('f(f"{ns}.{key}")') is None
        assert first_arg("f(name)") is None


class TestConfigAndErrors:
    def test_select_restricts_rules(self):
        report = lint_fixture("det_violations.py", select=["DET101"])
        assert {f.code for f in report.findings} == {"DET101"}

    def test_ignore_by_slug(self):
        report = lint_fixture(
            "det_violations.py", ignore=["unseeded-random"]
        )
        assert "DET101" not in {f.code for f in report.findings}

    def test_unknown_rule_id_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule 'DET999'"):
            resolve_rule_ids(["DET999"])

    def test_rule_ids_resolve_case_insensitively(self):
        assert resolve_rule_ids(["det101", "Unseeded-Random"]) == {"DET101"}

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError, match="no such file"):
            collect_files([str(REPO / "does_not_exist")])

    def test_empty_selection_raises(self):
        codes = [rule.code for rule in all_rules()]
        with pytest.raises(AnalysisError, match="nothing to run"):
            run_lint(
                [str(FIXTURES / "clean.py")],
                LintConfig(ignore=codes, docs_paths=FIXTURE_DOCS),
            )


class TestReporters:
    def test_text_report_lists_locations_and_summary(self):
        report = lint_fixture("det_violations.py")
        text = render_text(report)
        assert "det_violations.py:10:12 DET101(unseeded-random) error" in text
        assert "6 finding(s) in 1 file(s)" in text

    def test_json_report_round_trips(self):
        report = lint_fixture("det_violations.py")
        payload = json.loads(render_json(report))
        assert payload["files_checked"] == 1
        assert len(payload["findings"]) == 6
        first = payload["findings"][0]
        assert first["code"] == "DET101"
        assert first["line"] == 10
        assert first["severity"] == "error"

    def test_rule_catalog_metadata_is_complete(self):
        for rule in all_rules():
            assert rule.code and rule.name and rule.description
