"""Tests for the OTLP-JSON span exporter/loader and Prometheus rendering.

The golden file pins the exact bytes of the OTLP export for a fixed
span forest and seed — the determinism contract of ``docs/RUNS.md``.
If the exporter's encoding intentionally changes, regenerate it:

    PYTHONPATH=src python -c "
    from tests.test_obs_export_otlp import TREE, SEED
    from repro.obs.export import otlp_json, span_from_dict
    print(otlp_json([span_from_dict(TREE)], seed=SEED))
    " > tests/fixtures/otlp/detect_query.golden.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.export import (
    format_prometheus,
    otlp_json,
    otlp_to_spans,
    span_from_dict,
    spans_to_otlp,
)
from repro.obs.metrics import MetricsRegistry

GOLDEN = Path(__file__).parent / "fixtures" / "otlp" / "detect_query.golden.json"

SEED = "000007-deadbeef"

TREE = {
    "name": "detect.query",
    "attributes": {"modality": "possibly", "engine": "chain-choice",
                   "holds": True, "combinations": 8, "budget_ms": 1.5},
    "duration_ms": 4.25,
    "children": [
        {"name": "dispatch.singular",
         "attributes": {"strategy": "auto", "groups": 3},
         "duration_ms": 3.5,
         "children": [
            {"name": "scan.cpdhb", "attributes": {"advances": 4},
             "duration_ms": 1.25, "children": []},
            {"name": "scan.cpdhb", "attributes": {"advances": 2},
             "duration_ms": 0.75, "children": []},
         ]},
    ],
}


def forest():
    return [span_from_dict(TREE)]


class TestSpanFromDict:
    def test_rebuilds_names_attrs_durations(self):
        (root,) = forest()
        assert root.name == "detect.query"
        assert root.attributes["holds"] is True
        assert root.duration_ms == pytest.approx(4.25)
        assert [c.name for c in root.children] == ["dispatch.singular"]
        grandchildren = root.children[0].children
        assert [g.duration_ms for g in grandchildren] == [
            pytest.approx(1.25), pytest.approx(0.75)
        ]


class TestOtlpExport:
    def test_byte_deterministic_for_fixed_seed(self):
        assert otlp_json(forest(), SEED) == otlp_json(forest(), SEED)
        assert otlp_json(forest(), SEED) != otlp_json(forest(), "other-seed")

    def test_matches_golden_file(self):
        assert otlp_json(forest(), SEED) == GOLDEN.read_text().strip()

    def test_ids_and_synthetic_timeline(self):
        doc = spans_to_otlp(forest(), SEED)
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert [s["name"] for s in spans] == [
            "detect.query", "dispatch.singular", "scan.cpdhb", "scan.cpdhb"
        ]
        root, dispatch, scan1, scan2 = spans
        assert len(root["traceId"]) == 32
        assert len({s["traceId"] for s in spans}) == 1
        assert len({s["spanId"] for s in spans}) == 4
        assert all(len(s["spanId"]) == 16 for s in spans)
        assert all(s["kind"] == 1 for s in spans)
        assert "parentSpanId" not in root
        assert dispatch["parentSpanId"] == root["spanId"]
        assert scan1["parentSpanId"] == dispatch["spanId"]
        # Roots start at t=0; children are laid out back to back from
        # their parent's start (nanosecond strings).
        assert root["startTimeUnixNano"] == "0"
        assert root["endTimeUnixNano"] == "4250000"
        assert dispatch["startTimeUnixNano"] == "0"
        assert scan1["startTimeUnixNano"] == "0"
        assert scan1["endTimeUnixNano"] == "1250000"
        assert scan2["startTimeUnixNano"] == "1250000"
        assert scan2["endTimeUnixNano"] == "2000000"

    def test_attribute_value_kinds(self):
        doc = spans_to_otlp(forest(), SEED)
        root = doc["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        kinds = {
            a["key"]: list(a["value"]) for a in root["attributes"]
        }
        assert kinds["holds"] == ["boolValue"]
        assert kinds["combinations"] == ["intValue"]
        assert kinds["budget_ms"] == ["doubleValue"]
        assert kinds["engine"] == ["stringValue"]
        # OTLP/JSON encodes 64-bit ints as decimal strings.
        (combos,) = [
            a["value"]["intValue"] for a in root["attributes"]
            if a["key"] == "combinations"
        ]
        assert combos == "8"


class TestOtlpRoundTrip:
    def test_structure_survives(self):
        roots = otlp_to_spans(otlp_json(forest(), SEED))
        (root,) = roots
        assert root.name == "detect.query"
        assert root.attributes == TREE["attributes"]
        assert [c.name for c in root.children] == ["dispatch.singular"]
        scans = root.children[0].children
        assert [s.duration_ms for s in scans] == [
            pytest.approx(1.25), pytest.approx(0.75)
        ]

    def test_re_export_is_byte_identical(self):
        payload = otlp_json(forest(), SEED)
        assert otlp_json(otlp_to_spans(payload), SEED) == payload

    def test_accepts_dict_payloads(self):
        roots = otlp_to_spans(spans_to_otlp(forest(), SEED))
        assert [r.name for r in roots] == ["detect.query"]


class TestOtlpLoaderErrors:
    def _spans(self):
        return spans_to_otlp(forest(), SEED)

    def test_rejects_bad_json_string(self):
        with pytest.raises(ValueError, match="invalid OTLP JSON"):
            otlp_to_spans("{nope")

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            otlp_to_spans("[]")

    def test_rejects_duplicate_span_ids(self):
        doc = self._spans()
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        spans[1]["spanId"] = spans[0]["spanId"]
        with pytest.raises(ValueError, match="duplicate"):
            otlp_to_spans(doc)

    def test_rejects_dangling_parent(self):
        doc = self._spans()
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        spans[1]["parentSpanId"] = "f" * 16
        with pytest.raises(ValueError, match="unknown"):
            otlp_to_spans(doc)

    def test_rejects_missing_fields(self):
        doc = self._spans()
        del doc["resourceSpans"][0]["scopeSpans"][0]["spans"][0]["spanId"]
        with pytest.raises(ValueError, match="spanId"):
            otlp_to_spans(doc)


class TestPrometheus:
    def test_golden_rendering(self):
        reg = MetricsRegistry()
        reg.counter("detect.queries").inc(1)
        reg.counter("engine.cpdhb.advances").inc(3)
        reg.gauge("perf.slice.reduction").set(2)
        reg.histogram("span.detect.query.ms").record(2.5)
        expected = "\n".join([
            "# TYPE repro_detect_queries counter",
            "repro_detect_queries 1",
            "# TYPE repro_engine_cpdhb_advances counter",
            "repro_engine_cpdhb_advances 3",
            "# TYPE repro_perf_slice_reduction gauge",
            "repro_perf_slice_reduction 2",
            "# TYPE repro_span_detect_query_ms summary",
            'repro_span_detect_query_ms{quantile="0.5"} 2.5',
            'repro_span_detect_query_ms{quantile="0.95"} 2.5',
            'repro_span_detect_query_ms{quantile="0.99"} 2.5',
            "repro_span_detect_query_ms_sum 2.5",
            "repro_span_detect_query_ms_count 1",
        ]) + "\n"
        assert format_prometheus(reg.snapshot()) == expected

    def test_sanitizes_hostile_names(self):
        text = format_prometheus(
            {"counters": {"engine.chain-choice.combinations": 4}}
        )
        assert "# TYPE repro_engine_chain_choice_combinations counter" in text
        assert "repro_engine_chain_choice_combinations 4" in text

    def test_empty_histogram_has_no_quantiles_but_keeps_sum_count(self):
        reg = MetricsRegistry()
        reg.histogram("idle.ms")  # created, never recorded
        text = format_prometheus(reg.snapshot())
        assert "# TYPE repro_idle_ms summary" in text
        assert "quantile" not in text
        assert "repro_idle_ms_sum 0" in text
        assert "repro_idle_ms_count 0" in text

    def test_empty_snapshot_renders_empty(self):
        assert format_prometheus(
            {"counters": {}, "gauges": {}, "histograms": {}}
        ) == ""
