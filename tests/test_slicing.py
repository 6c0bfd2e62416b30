"""Tests for conjunctive computation slicing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_consistent_cuts
from repro.computation import ComputationBuilder, Cut, final_cut, initial_cut
from repro.perf import CausalityIndex
from repro.predicates import conjunctive, local
from repro.slicing import ConjunctiveSlice
from repro.trace import BoolVar, random_computation

random_comp = st.builds(
    random_computation,
    num_processes=st.integers(2, 4),
    events_per_process=st.integers(1, 4),
    message_density=st.floats(0.0, 0.7),
    seed=st.integers(0, 100_000),
    variables=st.just([BoolVar("x", density=0.45)]),
)


def brute_satisfying(comp, pred):
    return [c for c in all_consistent_cuts(comp) if pred.evaluate(c)]


def slice_of(comp, width=2):
    pred = conjunctive(*(local(p, "x") for p in range(width)))
    return ConjunctiveSlice(comp, pred), pred


class TestExtremes:
    @settings(max_examples=40, deadline=None)
    @given(random_comp)
    def test_least_and_greatest_match_brute_force(self, comp):
        slc, pred = slice_of(comp)
        cuts = brute_satisfying(comp, pred)
        if not cuts:
            assert slc.empty
            assert slc.least is None and slc.greatest is None
            return
        assert not slc.empty
        by_size = sorted(cuts, key=lambda c: c.frontier)
        # Union/intersection closure: min and max are the meet/join of all.
        expected_least = cuts[0]
        expected_greatest = cuts[0]
        for c in cuts[1:]:
            expected_least = expected_least.intersection(c)
            expected_greatest = expected_greatest.union(c)
        assert slc.least == expected_least
        assert slc.greatest == expected_greatest

    def test_figure2(self, figure2):
        pred = conjunctive(*(local(p, "x") for p in range(4)))
        slc = ConjunctiveSlice(figure2, pred)
        assert slc.least == final_cut(figure2)
        assert slc.greatest == final_cut(figure2)
        assert slc.count() == 1


class TestRounding:
    @settings(max_examples=30, deadline=None)
    @given(random_comp)
    def test_round_up_is_least_above(self, comp):
        slc, pred = slice_of(comp)
        cuts = brute_satisfying(comp, pred)
        for start in all_consistent_cuts(comp)[::3]:
            above = [c for c in cuts if start.subset_of(c)]
            rounded = slc.round_up(start)
            if not above:
                assert rounded is None
            else:
                expected = above[0]
                for c in above[1:]:
                    expected = expected.intersection(c)
                assert rounded == expected

    @settings(max_examples=30, deadline=None)
    @given(random_comp)
    def test_round_down_is_greatest_below(self, comp):
        slc, pred = slice_of(comp)
        cuts = brute_satisfying(comp, pred)
        for start in all_consistent_cuts(comp)[::3]:
            below = [c for c in cuts if c.subset_of(start)]
            rounded = slc.round_down(start)
            if not below:
                assert rounded is None
            else:
                expected = below[0]
                for c in below[1:]:
                    expected = expected.union(c)
                assert rounded == expected


    def test_inconsistent_fixpoint_raises(self, monkeypatch):
        """The fixpoint's consistency check is an explicit raise, so it
        also runs under ``python -O``."""
        builder = ComputationBuilder(2)
        send = builder.send(0)
        builder.message(send, builder.receive(1, x=True))
        comp = builder.build()
        slc = ConjunctiveSlice(comp, conjunctive(local(1, "x")))
        assert slc.round_up(initial_cut(comp)).frontier == (2, 2)
        # Without the closure the rounding lands on the receive alone.
        monkeypatch.setattr(
            CausalityIndex, "consistency_closure", lambda self, f: f
        )
        with pytest.raises(AssertionError, match="must be consistent"):
            slc.round_up(initial_cut(comp))

    def test_missing_greatest_cut_raises(self, figure2, monkeypatch):
        """The slice box check is an explicit raise, so it also runs
        under ``python -O``; a later call raises again rather than
        returning a half box."""
        slc = ConjunctiveSlice(figure2, conjunctive(local(1, "x")))
        monkeypatch.setattr(
            ConjunctiveSlice, "_round_down_frontier", lambda self, f: None
        )
        for _ in range(2):
            with pytest.raises(AssertionError, match="greatest cut"):
                slc.bounds_frontiers()


class TestEnumeration:
    @settings(max_examples=40, deadline=None)
    @given(random_comp)
    def test_enumerates_exactly_the_satisfying_cuts(self, comp):
        slc, pred = slice_of(comp)
        enumerated = set(slc)
        brute = set(brute_satisfying(comp, pred))
        assert enumerated == brute

    @settings(max_examples=25, deadline=None)
    @given(random_comp)
    def test_count(self, comp):
        slc, pred = slice_of(comp)
        assert slc.count() == len(brute_satisfying(comp, pred))

    def test_contains(self, figure2):
        pred = conjunctive(local(1, "x"), local(2, "x"))
        slc = ConjunctiveSlice(figure2, pred)
        assert Cut(figure2, (1, 2, 2, 1)) in slc
        assert Cut(figure2, (1, 1, 1, 1)) not in slc

    def test_unconstrained_predicate_slices_whole_lattice(self, figure2):
        # A conjunct that is always true on one process: every consistent
        # cut where process 0's x holds.
        pred = conjunctive(local(0, "x", negated=True))
        slc = ConjunctiveSlice(figure2, pred)
        brute = brute_satisfying(figure2, pred)
        assert slc.count() == len(brute)


class TestRoundingLaws:
    @settings(max_examples=25, deadline=None)
    @given(random_comp)
    def test_round_up_is_idempotent_and_extensive(self, comp):
        slc, pred = slice_of(comp)
        for start in all_consistent_cuts(comp)[::4]:
            rounded = slc.round_up(start)
            if rounded is None:
                continue
            assert start.subset_of(rounded)  # extensive
            assert slc.round_up(rounded) == rounded  # idempotent
            assert pred.evaluate(rounded)

    @settings(max_examples=25, deadline=None)
    @given(random_comp)
    def test_satisfying_cuts_are_fixpoints(self, comp):
        slc, pred = slice_of(comp)
        for cut in all_consistent_cuts(comp):
            if pred.evaluate(cut):
                assert slc.round_up(cut) == cut
                assert slc.round_down(cut) == cut

    @settings(max_examples=20, deadline=None)
    @given(random_comp)
    def test_galois_bracketing(self, comp):
        """round_down(C) <= C <= round_up(C) whenever both exist."""
        slc, _ = slice_of(comp)
        for start in all_consistent_cuts(comp)[::5]:
            up = slc.round_up(start)
            down = slc.round_down(start)
            if up is not None:
                assert start.subset_of(up)
            if down is not None:
                assert down.subset_of(start)
            if up is not None and down is not None:
                assert down.subset_of(up)


class TestSelectivityAdvantage:
    def test_enumeration_touches_only_satisfying_region(self):
        """On a selective predicate the slice explores far fewer cuts than
        the full lattice — the point of slicing."""
        comp = random_computation(
            5, 5, 0.2, seed=77, variables=[BoolVar("x", 0.15)]
        )
        pred = conjunctive(*(local(p, "x") for p in range(5)))
        slc = ConjunctiveSlice(comp, pred)
        satisfying = slc.count()
        total = len(all_consistent_cuts(comp))
        assert satisfying <= total
        if satisfying:
            assert pred.evaluate(slc.least)
