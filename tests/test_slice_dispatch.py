"""Slice-first dispatch: approximation soundness, bounded-engine parity,
and the widened rounding contract (inconsistent inputs are legal)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_consistent_cuts
from repro.computation import Cut, final_cut
from repro.detection import (
    definitely_enumerate,
    detect,
    possibly_enumerate,
)
from repro.predicates import (
    CNFPredicate,
    Clause,
    Literal,
    Modality,
    SymmetricPredicate,
    conjunctive,
    local,
    sum_predicate,
)
from repro.slicing import (
    ConjunctiveSlice,
    conjunctive_approximation,
    slice_info,
    sliced_definitely_enumerate,
    sliced_possibly_enumerate,
)
from repro.trace import BoolVar, UnitWalkVar, random_computation

random_comp = st.builds(
    random_computation,
    num_processes=st.integers(2, 3),
    events_per_process=st.integers(1, 3),
    message_density=st.floats(0.0, 0.7),
    seed=st.integers(0, 100_000),
    variables=st.just(
        [BoolVar("x", density=0.45), BoolVar("y", density=0.45)]
    ),
)


def nonsingular_cnf(n: int) -> CNFPredicate:
    """Single-process clauses plus one multi-process clause (dropped by
    the projection), sharing a process so the CNF is non-singular."""
    clauses = [
        Clause([Literal(0, "x")]),
        Clause([Literal(1, "y")]),
        Clause([Literal(1, "x", True), Literal(n - 1, "y")]),
    ]
    return CNFPredicate(clauses)


def dominates(lo, hi) -> bool:
    return all(a <= b for a, b in zip(lo, hi))


# ----------------------------------------------------------------------
# The widened rounding contract (regression: slice successor generation
# used to hand round_up a frontier bumped past a receive whose send was
# absent)
# ----------------------------------------------------------------------
class TestRoundingContract:
    def test_round_up_from_consistency_breaking_bump(self, figure2):
        # Bump process 2 past its receive g without the send f: the cut
        # (1,1,2,1) is inconsistent, exactly what successor generation
        # inside the slice produces.
        bumped = Cut(figure2, (1, 1, 2, 1))
        assert not bumped.is_consistent()
        pred = conjunctive(local(2, "x"))
        slc = ConjunctiveSlice(figure2, pred)
        rounded = slc.round_up(bumped)
        # Consistency closure pulls in f, and g already satisfies x@2.
        assert rounded == Cut(figure2, (1, 2, 2, 1))

    def test_round_up_all_conjuncts_from_inconsistent_cut(self, figure2):
        bumped = Cut(figure2, (1, 1, 2, 1))
        pred = conjunctive(*(local(p, "x") for p in range(4)))
        slc = ConjunctiveSlice(figure2, pred)
        assert slc.round_up(bumped) == final_cut(figure2)

    @settings(max_examples=30, deadline=None)
    @given(random_comp)
    def test_round_up_least_above_any_frontier(self, comp):
        """round_up(c) is the least satisfying cut >= c even when c is
        an arbitrary (possibly inconsistent) frontier."""
        pred = conjunctive(local(0, "x"), local(1, "x"))
        slc = ConjunctiveSlice(comp, pred)
        satisfying = [
            c for c in all_consistent_cuts(comp) if pred.evaluate(c)
        ]
        for base in all_consistent_cuts(comp)[::3]:
            for p in range(comp.num_processes):
                frontier = list(base.frontier)
                if frontier[p] >= len(comp.events_of(p)):
                    continue
                frontier[p] += 1
                start = Cut(comp, frontier)
                above = [
                    c
                    for c in satisfying
                    if dominates(start.frontier, c.frontier)
                ]
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
    def test_round_down_greatest_below_any_frontier(self, comp):
        pred = conjunctive(local(0, "x"), local(1, "x"))
        slc = ConjunctiveSlice(comp, pred)
        satisfying = [
            c for c in all_consistent_cuts(comp) if pred.evaluate(c)
        ]
        for base in all_consistent_cuts(comp)[::3]:
            for p in range(comp.num_processes):
                frontier = list(base.frontier)
                if frontier[p] <= 1:
                    continue
                frontier[p] -= 1
                start = Cut(comp, frontier)
                below = [
                    c
                    for c in satisfying
                    if dominates(c.frontier, start.frontier)
                ]
                rounded = slc.round_down(start)
                if not below:
                    assert rounded is None
                else:
                    expected = below[0]
                    for c in below[1:]:
                        expected = expected.union(c)
                    assert rounded == expected

    def test_rounding_on_faulty_protocol_trace(self):
        """The contract holds on real simulator traces under injected
        faults, not just on generator output."""
        from repro.simulation.faults import FaultPlan
        from repro.simulation.protocols import build_token_ring

        comp = build_token_ring(
            3,
            hops=3,
            seed=11,
            faults=FaultPlan(
                seed=11, message_loss=0.3, message_duplication=0.15
            ),
        )
        pred = conjunctive(local(0, "cs"), local(1, "cs"))
        slc = ConjunctiveSlice(comp, pred)
        satisfying = [
            c for c in all_consistent_cuts(comp) if pred.evaluate(c)
        ]
        for base in all_consistent_cuts(comp)[::5]:
            for p in range(comp.num_processes):
                frontier = list(base.frontier)
                if frontier[p] >= len(comp.events_of(p)):
                    continue
                frontier[p] += 1
                start = Cut(comp, frontier)
                above = [
                    c
                    for c in satisfying
                    if dominates(start.frontier, c.frontier)
                ]
                rounded = slc.round_up(start)
                if not above:
                    assert rounded is None
                else:
                    assert rounded in above
                    assert all(
                        dominates(rounded.frontier, c.frontier)
                        for c in above
                    )


# ----------------------------------------------------------------------
# The conjunctive over-approximation
# ----------------------------------------------------------------------
class TestApproximation:
    def test_conjunctive_is_exact(self, figure2):
        pred = conjunctive(local(0, "x"), local(3, "x"))
        approx = conjunctive_approximation(figure2, pred)
        assert approx is not None
        approximation, exact = approx
        assert exact
        for cut in all_consistent_cuts(figure2):
            assert approximation.evaluate(cut) == pred.evaluate(cut)

    def test_cnf_projection_drops_multiprocess_clauses(self, figure2):
        pred = nonsingular_cnf(4)
        approx = conjunctive_approximation(figure2, pred)
        assert approx is not None
        approximation, exact = approx
        assert not exact  # the multi-process clause was dropped
        assert {c.process for c in approximation.conjuncts} == {0, 1}

    def test_cnf_same_process_clauses_merge(self, figure2):
        pred = CNFPredicate(
            [
                Clause([Literal(0, "x")]),
                Clause([Literal(0, "x", True)]),  # x AND not-x: empty
            ]
        )
        approx = conjunctive_approximation(figure2, pred)
        assert approx is not None
        approximation, exact = approx
        assert exact
        assert len(approximation.conjuncts) == 1
        slc = ConjunctiveSlice(figure2, approximation)
        assert slc.empty

    def test_all_multiprocess_clauses_fall_back(self, figure2):
        pred = CNFPredicate(
            [Clause([Literal(0, "x"), Literal(1, "x")])]
        )
        assert conjunctive_approximation(figure2, pred) is None

    @settings(max_examples=30, deadline=None)
    @given(random_comp)
    def test_approximation_is_implied(self, comp):
        """B => B' on every consistent cut, for every predicate shape the
        projection handles."""
        walk = random_computation(
            comp.num_processes,
            2,
            0.3,
            seed=17,
            variables=[UnitWalkVar("v", floor=None)],
        )
        shapes = [
            (comp, nonsingular_cnf(comp.num_processes)),
            (walk, sum_predicate("v", "==", 1)),
            (walk, sum_predicate("v", ">=", 2)),
            (
                comp,
                SymmetricPredicate("x", comp.num_processes, [0, 1]),
            ),
        ]
        for instance, pred in shapes:
            approx = conjunctive_approximation(instance, pred)
            if approx is None:
                continue
            approximation, _ = approx
            for cut in all_consistent_cuts(instance):
                if pred.evaluate(cut):
                    assert approximation.evaluate(cut)


# ----------------------------------------------------------------------
# Sliced engines: verdict and witness parity, stats, opt-out
# ----------------------------------------------------------------------
class TestSlicedEngines:
    @settings(max_examples=30, deadline=None)
    @given(random_comp)
    def test_possibly_parity(self, comp):
        pred = nonsingular_cnf(comp.num_processes)
        sliced = sliced_possibly_enumerate(comp, pred)
        plain = possibly_enumerate(comp, pred)
        assert sliced.holds == plain.holds
        if sliced.holds:
            assert sliced.witness is not None
            assert sliced.witness.is_consistent()
            assert pred.evaluate(sliced.witness)
            assert sliced.witness.size() == plain.witness.size()

    @settings(max_examples=30, deadline=None)
    @given(random_comp)
    def test_definitely_parity(self, comp):
        pred = nonsingular_cnf(comp.num_processes)
        sliced = sliced_definitely_enumerate(comp, pred)
        plain = definitely_enumerate(comp, pred)
        assert sliced.holds == plain.holds

    def test_sliced_explores_no_more_cuts(self):
        comp = random_computation(
            3, 4, 0.3, seed=99,
            variables=[BoolVar("x", 0.3), BoolVar("y", 0.3)],
        )
        pred = nonsingular_cnf(3)
        sliced = sliced_possibly_enumerate(comp, pred)
        plain = possibly_enumerate(comp, pred)
        if sliced.algorithm.startswith("slice:"):
            assert "reduction" in sliced.stats
            assert sliced.stats["reduction"] >= 1.0
            assert (
                sliced.stats["cuts_explored"]
                <= plain.stats["cuts_explored"]
            )

    def test_empty_slice_answers_without_enumerating(self, figure2):
        pred = CNFPredicate(
            [
                Clause([Literal(0, "x")]),
                Clause([Literal(0, "x", True)]),
                Clause([Literal(1, "x"), Literal(2, "x")]),
            ]
        )
        for fn in (sliced_possibly_enumerate, sliced_definitely_enumerate):
            result = fn(figure2, pred)
            assert result.algorithm == "slice"
            assert not result.holds
            assert result.stats["cuts_explored"] == 0

    def test_fallback_when_not_useful(self, figure2):
        pred = CNFPredicate(
            [Clause([Literal(0, "x"), Literal(1, "x")])]
        )
        result = sliced_possibly_enumerate(figure2, pred)
        assert result.algorithm == "cooper-marzullo"

    def test_detect_matches_unsliced_engines(self, figure2):
        pred = nonsingular_cnf(4)
        for modality, unsliced_engine in (
            (Modality.POSSIBLY, possibly_enumerate),
            (Modality.DEFINITELY, definitely_enumerate),
        ):
            default = detect(figure2, pred, modality)
            unsliced = unsliced_engine(figure2, pred)
            assert default.holds == unsliced.holds
            assert not unsliced.algorithm.startswith("slice")

    def test_perf_metrics_emitted(self):
        from repro import obs

        comp = random_computation(
            3, 4, 0.3, seed=99,
            variables=[BoolVar("x", 0.3), BoolVar("y", 0.3)],
        )
        pred = nonsingular_cnf(3)
        with obs.Capture() as cap:
            result = detect(comp, pred, Modality.DEFINITELY)
        assert result.algorithm.startswith("slice")
        snapshot = cap.registry.snapshot()
        assert "perf.slice.reduction" in snapshot["gauges"]
        assert snapshot["gauges"]["perf.slice.reduction"] >= 1.0
        assert "perf.slice.cuts_pruned" in snapshot["counters"]


class TestSliceInfo:
    def test_reduction_shrinks_with_selectivity(self):
        comp = random_computation(
            4, 5, 0.2, seed=77, variables=[BoolVar("x", 0.15)]
        )
        pred = conjunctive(*(local(p, "x") for p in range(4)))
        info = slice_info(comp, pred)
        assert info.useful and info.exact
        assert info.reduction() > 1.0

    def test_not_useful_reports_unit_reduction(self, figure2):
        pred = CNFPredicate(
            [Clause([Literal(0, "x"), Literal(1, "x")])]
        )
        info = slice_info(figure2, pred)
        assert not info.useful
        assert info.bounds is None
        assert info.reduction() == 1.0
