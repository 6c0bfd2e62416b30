"""Tests for min/max sum over consistent cuts via min-cut."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_consistent_cuts
from repro.computation import ComputationBuilder
from repro.flow import (
    event_deltas,
    max_sum_cut,
    maximize_ideal_weight,
    min_sum_cut,
    sum_range,
)
from repro.flow.maxflow import MaxFlow
from repro.trace import ArbitraryWalkVar, UnitWalkVar, random_computation

unit_comp = st.builds(
    random_computation,
    num_processes=st.integers(1, 4),
    events_per_process=st.integers(0, 4),
    message_density=st.floats(0.0, 0.8),
    seed=st.integers(0, 10_000),
    variables=st.just([UnitWalkVar("v", floor=None)]),
)

arbitrary_comp = st.builds(
    random_computation,
    num_processes=st.integers(1, 4),
    events_per_process=st.integers(0, 3),
    message_density=st.floats(0.0, 0.8),
    seed=st.integers(0, 10_000),
    variables=st.just([ArbitraryWalkVar("v", max_step=25)]),
)


class TestEventDeltas:
    def test_deltas_from_values(self):
        builder = ComputationBuilder(1)
        builder.init_values(0, v=5)
        builder.internal(0, v=7)
        builder.internal(0, v=4)
        comp = builder.build()
        assert event_deltas(comp, "v") == {(0, 1): 2, (0, 2): -3}

    def test_missing_variable_defaults_zero(self, figure2):
        deltas = event_deltas(figure2, "nope")
        assert all(d == 0 for d in deltas.values())


class TestExtremes:
    def brute(self, comp, variable):
        sums = [cut.variable_sum(variable) for cut in all_consistent_cuts(comp)]
        return min(sums), max(sums)

    @settings(max_examples=40, deadline=None)
    @given(unit_comp)
    def test_unit_walks_match_brute_force(self, comp):
        lo, hi = self.brute(comp, "v")
        assert sum_range(comp, "v") == (lo, hi)

    @settings(max_examples=40, deadline=None)
    @given(arbitrary_comp)
    def test_arbitrary_walks_match_brute_force(self, comp):
        lo, hi = self.brute(comp, "v")
        got_lo, lo_cut = min_sum_cut(comp, "v")
        got_hi, hi_cut = max_sum_cut(comp, "v")
        assert (got_lo, got_hi) == (lo, hi)
        # Witnesses attain the extremes and are consistent.
        assert lo_cut.is_consistent() and lo_cut.variable_sum("v") == lo
        assert hi_cut.is_consistent() and hi_cut.variable_sum("v") == hi

    def test_figure2_bool_counts(self, figure2):
        # x is False initially and True after each event.
        lo, hi = sum_range(figure2, "x")
        assert (lo, hi) == (0, 4)

    def test_message_constrains_maximum(self):
        # p0's event sets v=1 but is only enabled after p1 drops to -1.
        builder = ComputationBuilder(2)
        builder.init_values(0, v=0)
        builder.init_values(1, v=1)
        builder.send(1, v=-1)
        builder.receive(0, v=1)
        builder.message((1, 1), (0, 1))
        comp = builder.build()
        lo, hi = sum_range(comp, "v")
        assert lo == -1  # after p1's drop, before p0's rise: 0 + (-1)
        assert hi == 1  # initial cut: 0+1; final cut: 1-1=0


class TestClosure:
    def test_weighted_closure_respects_dependencies(self):
        # One process: +5 event followed by -1: taking both beats stopping.
        builder = ComputationBuilder(1)
        builder.internal(0)
        builder.internal(0)
        comp = builder.build()
        best, witness = maximize_ideal_weight(comp, {(0, 1): -1, (0, 2): 5})
        assert best == 4
        assert witness.frontier == (3,)

    def test_negative_everything_selects_nothing(self, figure2):
        weights = {ev.event_id: -1 for ev in figure2.all_events()}
        best, witness = maximize_ideal_weight(figure2, weights)
        assert best == 0
        assert witness.size() == 0

    def test_message_dependency_forces_sender(self, figure2):
        # Rewarding g (+2) requires including f (-1): net +1.
        weights = {(2, 1): 2, (1, 1): -1}
        best, witness = maximize_ideal_weight(figure2, weights)
        assert best == 1
        assert witness.contains((1, 1)) and witness.contains((2, 1))

    def test_non_closed_ideal_raises(self, figure2, monkeypatch):
        """The witness consistency check is an explicit raise, so it also
        runs under ``python -O``."""
        ids = [ev.event_id for ev in figure2.all_events()]
        # The receive g without its send f: not downward closed.
        monkeypatch.setattr(
            MaxFlow,
            "min_cut_source_side",
            lambda self, source: {ids.index((2, 1))},
        )
        with pytest.raises(AssertionError, match="non-closed ideal"):
            maximize_ideal_weight(figure2, {(2, 1): 2, (1, 1): -1})
