"""Tests for stable-predicate detection."""

from __future__ import annotations

import pytest

from repro.computation import ComputationBuilder, final_cut
from repro.detection import detect_stable, is_stable
from repro.predicates import FunctionPredicate, local, sum_predicate


@pytest.fixture
def terminating():
    """Two processes that each finish (done=True) and stay finished."""
    builder = ComputationBuilder(2)
    for p in range(2):
        builder.init_values(p, done=False)
        builder.internal(p)
        builder.internal(p, done=True)
    return builder.build()


class TestIsStable:
    def test_termination_is_stable(self, terminating):
        pred = FunctionPredicate(
            lambda cut: all(cut.values("done")), "all-done"
        )
        assert is_stable(terminating, pred)

    def test_transient_predicate_is_not_stable(self, terminating):
        pred = FunctionPredicate(
            lambda cut: cut.frontier == (2, 1), "transient"
        )
        assert not is_stable(terminating, pred)

    def test_monotone_sum_threshold_is_stable(self, terminating):
        # done counts never decrease, so "at least one done" is stable.
        pred = sum_predicate("done", ">=", 1)
        assert is_stable(terminating, pred)


class TestDetectStable:
    def test_decided_at_final_cut(self, terminating):
        pred = FunctionPredicate(
            lambda cut: all(cut.values("done")), "all-done"
        )
        result = detect_stable(terminating, pred)
        assert result.holds
        assert result.witness == final_cut(terminating)

    def test_false_when_final_violates(self, terminating):
        pred = FunctionPredicate(
            lambda cut: not any(cut.values("done")), "none-done"
        )
        # Not stable, so only usable with verification off; at the final cut
        # it is false.
        assert not detect_stable(terminating, pred).holds

    def test_verification_rejects_unstable(self, terminating):
        # detect_stable assumes stability; is_stable is the check, and a
        # transient predicate fails it although it holds on some cut.
        pred = FunctionPredicate(
            lambda cut: cut.frontier == (2, 1), "transient"
        )
        assert not is_stable(terminating, pred)
        assert not detect_stable(terminating, pred).holds

    def test_verification_accepts_stable(self, terminating):
        pred = sum_predicate("done", ">=", 2)
        assert is_stable(terminating, pred)
        assert detect_stable(terminating, pred).holds
