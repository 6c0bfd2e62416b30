"""Integration tests: instrumentation wired through engines, CLI, monitor,
and simulator."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.detection import (
    detect,
    detect_by_chain_choice,
    detect_by_process_choice,
)
from repro.monitor import OnlineConjunctiveMonitor
from repro.obs.spans import take_roots
from repro.predicates import Modality
from repro.predicates.parser import parse_predicate
from repro.simulation.protocols import build_token_ring
from repro.trace import dump_computation


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable()
    obs.registry().reset()
    take_roots()
    yield
    obs.disable()
    obs.registry().reset()
    take_roots()


@pytest.fixture
def trace_path(tmp_path, figure2):
    path = tmp_path / "figure2.json"
    dump_computation(figure2, path)
    return str(path)


def _span_names(span):
    yield span.name
    for child in span.children:
        yield from _span_names(child)


# Engine families: (predicate, acceptable engine-span names).
ENGINE_FAMILIES = [
    ("x@0 & x@3", {"engine.cpdhb"}),
    ("(x@0 | x@1) & (x@2 | x@3)", {"engine.cpdsc", "engine.chain-choice"}),
    ("sum(x) >= 1", {"engine.min-cut"}),
    ("count(x) == 2", {"engine.symmetric-unit-step"}),
    ("inflight == 0", {"engine.cooper-marzullo"}),
]


class TestSpanTreePerEngineFamily:
    @pytest.mark.parametrize("expr,engines", ENGINE_FAMILIES)
    def test_detect_produces_root_and_engine_span(
        self, figure2, expr, engines
    ):
        predicate = parse_predicate(expr, num_processes=4)
        with obs.Capture() as cap:
            result = detect(figure2, predicate, Modality.POSSIBLY)
        (root,) = cap.roots
        assert root.name == "detect.query"
        assert root.attributes["engine"] == result.algorithm
        assert root.attributes["modality"] == "possibly"
        assert engines & set(_span_names(root))

    @pytest.mark.parametrize("expr,engines", ENGINE_FAMILIES)
    def test_cli_profile_prints_span_tree(
        self, trace_path, capsys, expr, engines
    ):
        code = main(["detect", trace_path, expr, "--profile"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "detect.query" in captured.err
        assert any(engine in captured.err for engine in engines)
        # stdout still carries the ordinary JSON verdict.
        payload = json.loads(captured.out)
        assert "algorithm" in payload


class TestZeroCombinationSpan:
    """A group with no true events must still close the span with holds."""

    def test_chain_choice_span_on_zero_combinations(self, figure2):
        # Variable ``y`` never holds, so the first group covers with zero
        # chains and the sweep has zero combinations.
        predicate = parse_predicate(
            "(y@0 | y@1) & (x@2 | x@3)", num_processes=4
        )
        with obs.Capture() as cap:
            result = detect_by_chain_choice(figure2, predicate)
        assert not result.holds
        assert result.stats["combinations"] == 0
        (root,) = cap.roots
        assert root.name == "engine.chain-choice"
        assert root.attributes["combinations"] == 0
        assert root.attributes["holds"] is False

    def test_process_choice_span_on_empty_true_events(self, figure2):
        # Process-choice keeps one (empty) chain per group process, so the
        # sweep runs but every scan fails; holds must still be recorded.
        predicate = parse_predicate(
            "(y@0 | y@1) & (x@2 | x@3)", num_processes=4
        )
        with obs.Capture() as cap:
            result = detect_by_process_choice(figure2, predicate)
        assert not result.holds
        (root,) = cap.roots
        assert root.name == "engine.process-choice"
        assert root.attributes["holds"] is False


class TestCountersMatchStats:
    def test_cpdhb_counters_equal_result_stats(self, figure2):
        predicate = parse_predicate("x@0 & x@3", num_processes=4)
        with obs.Capture() as cap:
            result = detect(figure2, predicate, Modality.POSSIBLY)
        snapshot = cap.registry.snapshot()
        assert snapshot["counters"]["engine.cpdhb.advances"] == \
            result.stats["advances"]
        assert snapshot["counters"]["engine.cpdhb.comparisons"] == \
            result.stats["comparisons"]
        assert snapshot["gauges"]["engine.cpdhb.chains"] == \
            result.stats["chains"]
        assert snapshot["counters"]["detect.queries"] == 1

    def test_definitely_counters_equal_result_stats(self, figure2):
        predicate = parse_predicate("x@0 & x@3", num_processes=4)
        # Every process's last figure2 event sets x, so the slice's
        # greatest cut is the final cut and the shortcut answers.
        with obs.Capture() as cap:
            result = detect(figure2, predicate, Modality.DEFINITELY)
        snapshot = cap.registry.snapshot()
        assert snapshot["counters"][
            "engine.interval-anchor.slice_shortcut"
        ] == result.stats["slice_shortcut"] == 1
        # With x@0 false the slice spans (1,1,1,2)..(1,2,2,2): neither
        # ⊥ nor ⊤, so the anchor search runs and mirrors its stats.
        predicate = parse_predicate("!x@0 & x@3", num_processes=4)
        with obs.Capture() as cap:
            result = detect(figure2, predicate, Modality.DEFINITELY)
        assert "slice_shortcut" not in result.stats
        snapshot = cap.registry.snapshot()
        assert snapshot["counters"]["engine.interval-anchor.states"] == \
            result.stats["states"]
        assert snapshot["gauges"]["engine.interval-anchor.anchors"] == \
            result.stats["anchors"]

    def test_stats_unchanged_when_disabled(self, figure2):
        """Backward compatibility: stats dicts populated with obs off."""
        predicate = parse_predicate("x@0 & x@3", num_processes=4)
        result = detect(figure2, predicate, Modality.POSSIBLY)
        assert set(result.stats) == {"chains", "advances", "comparisons"}
        assert obs.registry().snapshot()["counters"] == {}


class TestProfileSubcommand:
    def test_json_report(self, trace_path, capsys):
        code = main(["profile", trace_path, "x@0 & x@3", "--repeat", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "cpdhb"
        assert payload["repeat"] == 3
        assert payload["latency_ms"]["count"] == 3
        assert payload["latency_ms"]["p50"] <= payload["latency_ms"]["max"]
        assert payload["counters"]["detect.queries"] == 3

    def test_prometheus_export(self, trace_path, capsys):
        code = main(
            ["profile", trace_path, "x@0 & x@3", "--export", "prometheus"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_detect_queries counter" in out
        assert "repro_detect_queries 10" in out

    def test_spans_flag(self, trace_path, capsys):
        main(["profile", trace_path, "x@0 & x@3", "--repeat", "2", "--spans"])
        err = capsys.readouterr().err
        assert "detect.query" in err

    def test_disabled_after_profile(self, trace_path, capsys):
        main(["profile", trace_path, "x@0 & x@3", "--repeat", "1"])
        assert not obs.is_enabled()


class TestMonitorInstrumentation:
    def test_monitor_counters(self):
        obs.enable()
        monitor = OnlineConjunctiveMonitor(2, [0, 1])
        monitor.observe(0, 0, (1, 1), True)
        monitor.observe(1, 0, (1, 1), True)
        assert monitor.detected
        snapshot = obs.registry().snapshot()
        assert snapshot["counters"]["monitor.observations"] == 2
        assert snapshot["counters"]["monitor.candidates_queued"] == 2
        assert snapshot["counters"]["monitor.detections"] == 1
        assert snapshot["gauges"]["monitor.observations_to_detection"] == 2
        hist = snapshot["histograms"]["monitor.time_to_detection.ms"]
        assert hist["count"] == 1

    def test_monitor_attributes_still_work_disabled(self):
        monitor = OnlineConjunctiveMonitor(2, [0, 1])
        monitor.observe(0, 0, (1, 1), True)
        monitor.observe(1, 0, (1, 1), True)
        assert monitor.observations == 2
        assert obs.registry().snapshot()["counters"] == {}


class TestSimulatorInstrumentation:
    def test_simulator_span_and_counters(self):
        with obs.Capture() as cap:
            build_token_ring(3, hops=4, seed=1)
        snapshot = cap.registry.snapshot()
        assert snapshot["counters"]["sim.events"] > 0
        assert snapshot["counters"]["sim.messages_sent"] > 0
        assert snapshot["counters"]["sim.steps.message"] > 0
        sim_spans = [r for r in cap.roots if r.name == "sim.run"]
        assert sim_spans and sim_spans[0].attributes["events"] > 0
