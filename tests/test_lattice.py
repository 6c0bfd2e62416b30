"""Tests for lattice enumeration, avoidance and linearizations."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_consistent_cuts
from repro.computation import (
    ComputationBuilder,
    Cut,
    count_consistent_cuts,
    final_cut,
    initial_cut,
    iter_levels,
    iter_linearizations,
    lattice_width,
    some_linearization,
)
from repro.detection import definitely_enumerate
from repro.predicates import FunctionPredicate
from repro.trace import random_computation

random_comp = st.builds(
    random_computation,
    num_processes=st.integers(1, 4),
    events_per_process=st.integers(0, 4),
    message_density=st.floats(0.0, 0.8),
    seed=st.integers(0, 10_000),
)


def independent(num_processes: int, events_each: int):
    builder = ComputationBuilder(num_processes)
    for p in range(num_processes):
        for _ in range(events_each):
            builder.internal(p)
    return builder.build()


class TestEnumeration:
    def test_independent_processes_product_count(self):
        # Without messages the lattice is a full grid.
        for n, m in [(1, 3), (2, 2), (3, 2), (4, 1)]:
            comp = independent(n, m)
            assert count_consistent_cuts(comp) == (m + 1) ** n

    def test_figure2_count(self, figure2):
        # 2^4 frontiers minus the 4 with g but not f.
        assert count_consistent_cuts(figure2) == 12

    @settings(max_examples=25, deadline=None)
    @given(random_comp)
    def test_enumeration_matches_brute_force(self, comp):
        by_size = {}
        for cut in all_consistent_cuts(comp):
            by_size.setdefault(cut.size(), set()).add(cut)
        levels = list(iter_levels(comp))
        assert len(levels) == len(by_size)
        for k, level in enumerate(levels):
            assert len(level) == len(set(level))
            assert set(level) == by_size[k]

    def test_levels_partition_by_size(self, diamond):
        for k, level in enumerate(iter_levels(diamond)):
            assert level, "levels must be non-empty until exhaustion"
            for cut in level:
                assert cut.size() == k

    def test_level_count_is_total_events_plus_one(self, diamond):
        levels = list(iter_levels(diamond))
        assert len(levels) == diamond.total_events() + 1
        assert levels[0] == [initial_cut(diamond)]
        assert levels[-1] == [final_cut(diamond)]

    def test_lattice_width(self):
        comp = independent(2, 2)
        # Grid 3x3: anti-diagonal has 3 cuts.
        assert lattice_width(comp) == 3


def avoidable(comp, avoid) -> bool:
    """Is there a run through cuts where ``avoid`` is false?"""
    return not definitely_enumerate(comp, FunctionPredicate(avoid)).holds


class TestReachability:
    def test_unrestricted_reachability(self, figure2):
        assert avoidable(figure2, lambda cut: False)

    def test_blocked_when_endpoint_satisfies(self, figure2):
        assert not avoidable(figure2, lambda cut: cut.size() == 0)
        assert not avoidable(figure2, lambda cut: cut == final_cut(figure2))

    def test_unavoidable_middle_level(self, figure2):
        # Every run passes through a cut of size 2.
        assert not avoidable(figure2, lambda cut: cut.size() == 2)

    def test_avoidable_specific_cut(self, figure2):
        target = Cut(figure2, (2, 1, 1, 1))
        assert avoidable(figure2, lambda cut: cut == target)


class TestLinearizations:
    def test_some_linearization_is_valid_run(self, diamond):
        order = some_linearization(diamond)
        assert len(order) == diamond.total_events()
        seen = set()
        for eid in order:
            pred = diamond.predecessor(eid)
            if pred is not None and pred[1] >= 1:
                assert pred in seen
            for src in diamond.message_sources(eid):
                assert src in seen
            seen.add(eid)

    def test_some_linearization_deterministic(self, diamond):
        assert some_linearization(diamond) == some_linearization(diamond)

    def test_iter_linearizations_count_independent(self):
        comp = independent(2, 2)
        # Interleavings of two sequences of length 2: C(4,2) = 6.
        assert len(list(iter_linearizations(comp))) == 6

    def test_iter_linearizations_limit(self):
        comp = independent(3, 2)
        assert len(list(iter_linearizations(comp, limit=4))) == 4

    def test_all_linearizations_respect_causality(self, figure2):
        for run in iter_linearizations(figure2):
            f_pos = run.index((1, 1))
            g_pos = run.index((2, 1))
            assert f_pos < g_pos
