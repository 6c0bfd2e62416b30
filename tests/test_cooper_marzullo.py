"""Tests for the Cooper–Marzullo enumeration baseline."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_definitely, brute_possibly
from repro.computation import final_cut, initial_cut
from repro.detection import definitely_enumerate, possibly_enumerate
from repro.predicates import (
    ConstantPredicate,
    FunctionPredicate,
    conjunctive,
    local,
)
from repro.trace import BoolVar, random_computation

random_comp = st.builds(
    random_computation,
    num_processes=st.integers(1, 3),
    events_per_process=st.integers(0, 3),
    message_density=st.floats(0.0, 0.8),
    seed=st.integers(0, 10_000),
    variables=st.just([BoolVar("x", density=0.5)]),
)


class TestPossibly:
    def test_constant_true_found_at_bottom(self, figure2):
        result = possibly_enumerate(figure2, ConstantPredicate(True))
        assert result.holds
        assert result.witness == initial_cut(figure2)
        assert result.stats["cuts_explored"] == 1

    def test_constant_false_explores_everything(self, figure2):
        result = possibly_enumerate(figure2, ConstantPredicate(False))
        assert not result.holds
        assert result.stats["cuts_explored"] == 12

    def test_witness_satisfies(self, figure2):
        pred = conjunctive(local(1, "x"), local(2, "x"))
        result = possibly_enumerate(figure2, pred)
        assert result.holds
        assert pred.evaluate(result.witness)

    @settings(max_examples=30, deadline=None)
    @given(random_comp, st.integers(0, 3))
    def test_matches_brute_force(self, comp, count):
        pred = FunctionPredicate(
            lambda cut: sum(bool(v) for v in cut.values("x")) == count,
            f"count=={count}",
        )
        result = possibly_enumerate(comp, pred)
        assert result.holds == (brute_possibly(comp, pred.evaluate) is not None)


class TestDefinitely:
    def test_bottom_or_top_satisfying_is_definite(self, figure2):
        at_bottom = FunctionPredicate(lambda cut: cut.size() == 0, "bottom")
        at_top = FunctionPredicate(
            lambda cut: cut == final_cut(figure2), "top"
        )
        assert definitely_enumerate(figure2, at_bottom).holds
        assert definitely_enumerate(figure2, at_top).holds

    def test_constant_false_counts_each_cut_once(self, figure2):
        result = definitely_enumerate(figure2, ConstantPredicate(False))
        assert not result.holds
        assert result.stats["cuts_explored"] == 12

    def test_unavoidable_level(self, figure2):
        pred = FunctionPredicate(lambda cut: cut.size() == 2, "level2")
        assert definitely_enumerate(figure2, pred).holds

    def test_avoidable_single_cut(self, figure2):
        from repro.computation import Cut

        target = Cut(figure2, (2, 1, 1, 1))
        pred = FunctionPredicate(lambda cut: cut == target, "one-cut")
        assert not definitely_enumerate(figure2, pred).holds

    def test_conjunctive_definitely_when_forced(self, two_chain):
        # x at (0,1)... every run passes through a cut where p0 has run
        # exactly one event?  Yes: size-respecting paths visit every local
        # prefix combination along the way for a single process.
        pred = FunctionPredicate(
            lambda cut: cut.frontier[0] == 2, "p0-after-first"
        )
        assert definitely_enumerate(two_chain, pred).holds

    @settings(max_examples=25, deadline=None)
    @given(random_comp, st.integers(0, 2))
    def test_matches_run_enumeration_oracle(self, comp, count):
        pred = FunctionPredicate(
            lambda cut: sum(bool(v) for v in cut.values("x")) >= count,
            f"count>={count}",
        )
        got = definitely_enumerate(comp, pred).holds
        assert got == brute_definitely(comp, pred.evaluate)

    @settings(max_examples=20, deadline=None)
    @given(random_comp)
    def test_definitely_implies_possibly(self, comp):
        pred = FunctionPredicate(
            lambda cut: sum(bool(v) for v in cut.values("x")) == 1, "count==1"
        )
        if definitely_enumerate(comp, pred).holds:
            assert possibly_enumerate(comp, pred).holds
