"""Tests for symmetric predicate detection (paper, Section 4.3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_definitely, brute_possibly
from repro.detection import (
    definitely_symmetric,
    possibly_symmetric,
    symmetric_detect,
)
from repro.predicates import (
    SymmetricPredicate,
    absence_of_simple_majority,
    exactly_k_tokens,
    exclusive_or,
    not_all_equal,
)
from repro.trace import BoolVar, random_computation

bool_comp = st.builds(
    random_computation,
    num_processes=st.integers(2, 4),
    events_per_process=st.integers(0, 4),
    message_density=st.floats(0.0, 0.7),
    seed=st.integers(0, 100_000),
    variables=st.just([BoolVar("x", density=0.45)]),
)

# Run enumeration (the definitely oracle) explodes combinatorially; keep
# those computations small.
small_bool_comp = st.builds(
    random_computation,
    num_processes=st.integers(2, 3),
    events_per_process=st.integers(0, 3),
    message_density=st.floats(0.0, 0.7),
    seed=st.integers(0, 100_000),
    variables=st.just([BoolVar("x", density=0.45)]),
)


class TestPossibly:
    @settings(max_examples=40, deadline=None)
    @given(bool_comp, st.data())
    def test_matches_brute_force(self, comp, data):
        n = comp.num_processes
        counts = data.draw(
            st.sets(st.integers(0, n), min_size=1, max_size=n + 1)
        )
        pred = SymmetricPredicate("x", n, counts)
        got = possibly_symmetric(comp, pred)
        expected = brute_possibly(comp, pred.evaluate) is not None
        assert got.holds == expected
        if got.holds:
            assert got.witness is not None
            assert pred.evaluate(got.witness)

    def test_paper_examples_on_figure2(self, figure2):
        # All four x's flip to true; every intermediate count is reachable.
        assert possibly_symmetric(figure2, exclusive_or("x", 4)).holds
        assert possibly_symmetric(figure2, exactly_k_tokens("x", 4, 2)).holds
        assert possibly_symmetric(
            figure2, absence_of_simple_majority("x", 4)
        ).holds
        assert possibly_symmetric(figure2, not_all_equal("x", 4)).holds

    def test_unreachable_count(self, figure2):
        # Only 4 processes; count 5 is not even representable, and an empty
        # reachable intersection must be reported as False.
        pred = SymmetricPredicate("x", 4, {4})
        truncated = SymmetricPredicate("x", 4, {0})
        assert possibly_symmetric(figure2, pred).holds  # all true at top
        assert possibly_symmetric(figure2, truncated).holds  # all false at bottom

    def test_missing_witness_raises(self, figure2, monkeypatch):
        """A positive verdict without a witness is an explicit raise, so
        the check also runs under ``python -O``."""
        monkeypatch.setattr(
            symmetric_detect, "witness_cut_with_sum", lambda *a: None
        )
        with pytest.raises(AssertionError, match="no cut has it"):
            possibly_symmetric(figure2, exactly_k_tokens("x", 4, 1))

    def test_stats_expose_count_range(self, figure2):
        result = possibly_symmetric(figure2, exactly_k_tokens("x", 4, 2))
        assert result.stats == {"min_count": 0, "max_count": 4}


class TestDefinitely:
    @settings(max_examples=25, deadline=None)
    @given(small_bool_comp, st.data())
    def test_matches_run_oracle(self, comp, data):
        n = comp.num_processes
        counts = data.draw(
            st.sets(st.integers(0, n), min_size=1, max_size=n + 1)
        )
        pred = SymmetricPredicate("x", n, counts)
        got = definitely_symmetric(comp, pred)
        assert got.holds == brute_definitely(comp, pred.evaluate)

    @settings(max_examples=25, deadline=None)
    @given(small_bool_comp, st.integers(0, 4))
    def test_singleton_uses_theorem7(self, comp, k):
        if k > comp.num_processes:
            k = comp.num_processes
        pred = exactly_k_tokens("x", comp.num_processes, k)
        got = definitely_symmetric(comp, pred)
        assert "theorem7" in got.algorithm
        assert got.holds == brute_definitely(comp, pred.evaluate)

    def test_definitely_implies_possibly(self, figure2):
        pred = exactly_k_tokens("x", 4, 2)
        if definitely_symmetric(figure2, pred).holds:
            assert possibly_symmetric(figure2, pred).holds
