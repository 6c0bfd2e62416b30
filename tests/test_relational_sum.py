"""Tests for relational-sum detection (paper, Section 4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_consistent_cuts, brute_definitely, brute_possibly
from repro.computation import ComputationBuilder
from repro.detection import (
    definitely_sum,
    definitely_sum_eq_unit,
    possibly_enumerate,
    possibly_sum,
    possibly_sum_eq_exact,
    possibly_sum_eq_unit,
    witness_cut_with_sum,
)
from repro.flow import sum_range
from repro.predicates import (
    RelationalSumPredicate,
    Relop,
    UnsupportedPredicateError,
    sum_predicate,
)
from repro.trace import ArbitraryWalkVar, UnitWalkVar, random_computation

unit_comp = st.builds(
    random_computation,
    num_processes=st.integers(1, 3),
    events_per_process=st.integers(0, 4),
    message_density=st.floats(0.0, 0.8),
    seed=st.integers(0, 100_000),
    variables=st.just([UnitWalkVar("v", floor=None)]),
)

arbitrary_comp = st.builds(
    random_computation,
    num_processes=st.integers(1, 3),
    events_per_process=st.integers(0, 3),
    message_density=st.floats(0.0, 0.8),
    seed=st.integers(0, 100_000),
    variables=st.just([ArbitraryWalkVar("v", max_step=7)]),
)

ALL_RELOPS = ["<", "<=", ">", ">=", "==", "!="]


class TestPossiblyMatchesBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(unit_comp, st.sampled_from(ALL_RELOPS), st.integers(-4, 4))
    def test_unit_step(self, comp, relop, k):
        pred = sum_predicate("v", relop, k)
        got = possibly_sum(comp, pred)
        expected = brute_possibly(comp, pred.evaluate) is not None
        assert got.holds == expected
        if got.holds and got.witness is not None:
            assert pred.evaluate(got.witness)

    @settings(max_examples=40, deadline=None)
    @given(arbitrary_comp, st.sampled_from(ALL_RELOPS), st.integers(-15, 15))
    def test_arbitrary_increments(self, comp, relop, k):
        pred = sum_predicate("v", relop, k)
        got = possibly_sum(comp, pred)
        expected = brute_possibly(comp, pred.evaluate) is not None
        assert got.holds == expected


class TestTheorem7:
    """The paper's headline equivalences, checked as stated."""

    @settings(max_examples=30, deadline=None)
    @given(unit_comp, st.integers(-4, 4))
    def test_possibly_eq_iff_between_min_and_max(self, comp, k):
        lo, hi = sum_range(comp, "v")
        pred = sum_predicate("v", "==", k)
        result = possibly_sum_eq_unit(comp, pred)
        assert result.holds == (lo <= k <= hi)
        if result.holds:
            assert result.witness.variable_sum("v") == k
        # Equivalently: possibly(<=k) and possibly(>=k).
        le = possibly_sum(comp, sum_predicate("v", "<=", k)).holds
        ge = possibly_sum(comp, sum_predicate("v", ">=", k)).holds
        assert result.holds == (le and ge)

    @settings(max_examples=20, deadline=None)
    @given(unit_comp, st.integers(-3, 3))
    def test_definitely_eq_decomposition(self, comp, k):
        pred = sum_predicate("v", "==", k)
        got = definitely_sum_eq_unit(comp, pred)
        d_le = not_avoidable(comp, "v", "<=", k)
        d_ge = not_avoidable(comp, "v", ">=", k)
        assert got.holds == (d_le and d_ge)

    @settings(max_examples=20, deadline=None)
    @given(unit_comp, st.integers(-3, 3))
    def test_definitely_matches_run_oracle(self, comp, k):
        pred = sum_predicate("v", "==", k)
        got = definitely_sum(comp, pred)
        assert got.holds == brute_definitely(comp, pred.evaluate)

    def test_unit_engine_rejects_jumpy_variables(self):
        builder = ComputationBuilder(1)
        builder.init_values(0, v=0)
        builder.internal(0, v=9)
        comp = builder.build()
        with pytest.raises(UnsupportedPredicateError):
            possibly_sum_eq_unit(comp, sum_predicate("v", "==", 4))

    @settings(max_examples=25, deadline=None)
    @given(unit_comp, st.integers(-4, 4))
    def test_witness_walk(self, comp, k):
        lo, hi = sum_range(comp, "v")
        witness = witness_cut_with_sum(comp, "v", k)
        if lo <= k <= hi:
            assert witness is not None
            assert witness.is_consistent()
            assert witness.variable_sum("v") == k
        else:
            assert witness is None


def not_avoidable(comp, variable, relop, k):
    """definitely(sum relop k) via the independent run-enumeration oracle."""
    pred = sum_predicate(variable, relop, k)
    return brute_definitely(comp, pred.evaluate)


class TestExactEngine:
    @settings(max_examples=30, deadline=None)
    @given(arbitrary_comp, st.integers(-15, 15))
    def test_exact_eq_matches_brute_force(self, comp, k):
        pred = sum_predicate("v", "==", k)
        got = possibly_sum_eq_exact(comp, pred)
        expected = brute_possibly(comp, pred.evaluate) is not None
        assert got.holds == expected
        if got.holds:
            assert got.witness is not None
            assert got.witness.variable_sum("v") == k

    def test_exact_engine_requires_eq(self, figure2):
        with pytest.raises(UnsupportedPredicateError):
            possibly_sum_eq_exact(figure2, sum_predicate("x", "<=", 1))

    def test_sumset_dp_used_without_messages(self):
        builder = ComputationBuilder(3)
        for p in range(3):
            builder.init_values(p, v=0)
            builder.internal(p, v=(p + 1) * 10)
        comp = builder.build()
        result = possibly_sum_eq_exact(comp, sum_predicate("v", "==", 30))
        assert result.algorithm == "sumset-dp"
        assert result.holds
        miss = possibly_sum_eq_exact(comp, sum_predicate("v", "==", 25))
        assert not miss.holds

    def test_enumeration_used_with_messages(self, two_chain):
        result = possibly_sum_eq_exact(two_chain, sum_predicate("v", "==", 2))
        # Slice-first by default; the inner engine is still the enumerator.
        assert result.algorithm in ("cooper-marzullo", "slice:cooper-marzullo")
        unsliced = possibly_enumerate(two_chain, sum_predicate("v", "==", 2))
        assert unsliced.algorithm == "cooper-marzullo"
        assert unsliced.holds == result.holds


class TestDispatch:
    def test_eq_uses_theorem7_when_unit(self, two_chain):
        result = possibly_sum(two_chain, sum_predicate("v", "==", 2))
        assert result.algorithm == "theorem7-unit-step"

    def test_eq_falls_back_when_jumpy(self):
        builder = ComputationBuilder(2)
        for p in range(2):
            builder.init_values(p, v=0)
            builder.internal(p, v=5)
        comp = builder.build()
        result = possibly_sum(comp, sum_predicate("v", "==", 5))
        assert result.algorithm == "sumset-dp"
        assert result.holds

    def test_inequalities_use_mincut(self, two_chain):
        for relop in ("<", "<=", ">", ">="):
            result = possibly_sum(two_chain, sum_predicate("v", relop, 1))
            assert result.algorithm == "min-cut"

    def test_ne_logic(self):
        # Sum identically zero: != 0 impossible, != 1 trivially possible.
        builder = ComputationBuilder(2)
        for p in range(2):
            builder.init_values(p, v=0)
            builder.internal(p, v=0)
        comp = builder.build()
        assert not possibly_sum(comp, sum_predicate("v", "!=", 0)).holds
        result = possibly_sum(comp, sum_predicate("v", "!=", 1))
        assert result.holds
        assert result.witness is not None

    @settings(max_examples=20, deadline=None)
    @given(
        unit_comp,
        st.sampled_from(["<", "<=", ">", ">="]),
        st.integers(-3, 3),
    )
    def test_definitely_inequality_matches_oracle(self, comp, relop, k):
        pred = sum_predicate("v", relop, k)
        got = definitely_sum(comp, pred)
        assert got.holds == brute_definitely(comp, pred.evaluate)
        assert got.algorithm == "avoidance-search"
        assert got.stats["searches"] == 1
        assert "cuts_explored" in got.stats
