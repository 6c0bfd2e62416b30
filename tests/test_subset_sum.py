"""Tests for SUBSET-SUM and the Theorem 2 reduction."""

from __future__ import annotations

import itertools

import pytest

from repro.detection import possibly_sum
from repro.reductions import (
    SubsetSumInstance,
    random_instance,
    solve_subset_sum,
    subset_from_witness,
    subset_sum_to_detection,
    witness_from_subset,
)


def brute_force(instance):
    for size in range(len(instance.sizes) + 1):
        for combo in itertools.combinations(range(len(instance.sizes)), size):
            if sum(instance.sizes[j] for j in combo) == instance.target:
                return list(combo)
    return None


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubsetSumInstance((0, 1), 1)
        with pytest.raises(ValueError):
            SubsetSumInstance((1, 2), 0)


class TestSolver:
    def test_simple_hit(self):
        instance = SubsetSumInstance((3, 5, 7), 12)
        subset = solve_subset_sum(instance)
        assert subset is not None
        assert sum(instance.sizes[j] for j in subset) == 12

    def test_simple_miss(self):
        assert solve_subset_sum(SubsetSumInstance((4, 6), 5)) is None

    def test_target_above_total(self):
        assert solve_subset_sum(SubsetSumInstance((1, 2), 9)) is None

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_brute_force(self, seed):
        instance = random_instance(7, 20, seed)
        dp = solve_subset_sum(instance)
        brute = brute_force(instance)
        assert (dp is None) == (brute is None)
        if dp is not None:
            assert sum(instance.sizes[j] for j in dp) == instance.target


class TestReduction:
    def test_shape(self):
        instance = SubsetSumInstance((2, 3, 5), 8)
        comp, pred = subset_sum_to_detection(instance)
        assert comp.num_processes == 3
        assert comp.total_events() == 3
        assert not comp.messages
        assert pred.constant == 8

    @pytest.mark.parametrize("seed", range(15))
    def test_equivalence(self, seed):
        instance = random_instance(6, 25, seed)
        comp, pred = subset_sum_to_detection(instance)
        detected = possibly_sum(comp, pred)
        solvable = solve_subset_sum(instance) is not None
        assert detected.holds == solvable

    def test_witness_maps_to_subset(self):
        instance = SubsetSumInstance((2, 3, 5), 7)
        comp, pred = subset_sum_to_detection(instance)
        result = possibly_sum(comp, pred)
        assert result.holds
        subset = subset_from_witness(instance, result.witness)
        assert sum(instance.sizes[j] for j in subset) == 7

    def test_subset_maps_to_witness(self):
        instance = SubsetSumInstance((2, 3, 5), 5)
        comp, _ = subset_sum_to_detection(instance)
        witness = witness_from_subset(comp, [0, 1])
        assert witness.variable_sum("x") == 5


class TestRandomInstance:
    def test_solvable_flag(self):
        for seed in range(10):
            instance = random_instance(6, 15, seed, solvable=True)
            assert solve_subset_sum(instance) is not None

    def test_unsolvable_flag(self):
        for seed in range(10):
            instance = random_instance(6, 15, seed, solvable=False)
            assert solve_subset_sum(instance) is None

    def test_deterministic(self):
        a = random_instance(5, 9, 3)
        b = random_instance(5, 9, 3)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            random_instance(0, 5, 1)


class TestExplicitRaises:
    """The decoding checks raise explicitly, so ``python -O`` keeps them."""

    def test_witness_off_target_raises(self):
        instance = SubsetSumInstance((1, 2), 3)
        comp, _ = subset_sum_to_detection(instance)
        off_target = witness_from_subset(comp, [0])
        with pytest.raises(AssertionError, match="sums to 1, not 3"):
            subset_from_witness(instance, off_target)

    def test_inconsistent_subset_cut_raises(self, monkeypatch):
        from repro.computation import Cut

        comp, _ = subset_sum_to_detection(SubsetSumInstance((1, 2), 3))
        monkeypatch.setattr(Cut, "is_consistent", lambda self: False)
        with pytest.raises(AssertionError, match="is inconsistent"):
            witness_from_subset(comp, [0, 1])
