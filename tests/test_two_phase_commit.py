"""Tests for the two-phase commit workload — the paper's `definitely`
example ("commit point of a transaction")."""

from __future__ import annotations

import itertools

import pytest

from repro.computation import final_cut
from repro.detection import definitely, detect_stable, is_stable, possibly
from repro.predicates import (
    conjunctive,
    exactly_k_tokens,
    local,
    sum_predicate,
)
from repro.simulation.protocols import build_two_phase_commit

N = 3
PARTICIPANTS = range(1, N + 1)


def all_committed():
    return conjunctive(*(local(p, "committed") for p in PARTICIPANTS))


def mixed_outcome_possible(comp):
    return any(
        possibly(
            comp, conjunctive(local(i, "committed"), local(j, "aborted"))
        )
        for i, j in itertools.permutations(PARTICIPANTS, 2)
    )


class TestCommitPath:
    @pytest.mark.parametrize("seed", range(5))
    def test_definitely_commit_point(self, seed):
        """The paper's example: the commit point definitely occurs."""
        comp = build_two_phase_commit(N, seed=seed)
        assert definitely(comp, all_committed()), seed

    @pytest.mark.parametrize("seed", range(5))
    def test_commit_is_stable(self, seed):
        comp = build_two_phase_commit(N, seed=seed)
        assert is_stable(comp, all_committed())
        assert detect_stable(comp, all_committed()).holds

    @pytest.mark.parametrize("seed", range(5))
    def test_votes_definitely_unanimous_along_every_run(self, seed):
        comp = build_two_phase_commit(N, seed=seed)
        # voted counts rise by one per vote: every run passes every count.
        for k in range(N + 1):
            assert definitely(comp, exactly_k_tokens("voted", N + 1, k))


class TestAbortPath:
    def test_some_run_aborts_with_mixed_votes(self):
        hit = False
        for seed in range(10):
            comp = build_two_phase_commit(
                N, seed=seed, yes_probability=0.3
            )
            top = final_cut(comp)
            if any(top.value(p, "aborted", False) for p in PARTICIPANTS):
                hit = True
                # Abort must be unanimous among the correct processes.
                assert not any(
                    top.value(p, "committed", False) for p in PARTICIPANTS
                )
        assert hit

    @pytest.mark.parametrize("seed", range(8))
    def test_atomicity_without_bug(self, seed):
        comp = build_two_phase_commit(N, seed=seed, yes_probability=0.5)
        assert not mixed_outcome_possible(comp), seed

    def test_no_commit_after_any_no_vote(self):
        for seed in range(6):
            comp = build_two_phase_commit(N, seed=seed, yes_probability=0.0)
            assert not possibly(comp, sum_predicate("committed", ">=", 1))


class TestInjectedBug:
    def test_unilateral_commit_breaks_atomicity(self):
        # Seeds where participant 2 votes YES while someone votes NO
        # (found deterministically; the generator is seeded).
        violating = [
            seed
            for seed in range(20)
            if mixed_outcome_possible(
                build_two_phase_commit(
                    N, seed=seed, yes_probability=0.5,
                    unilateral_participant=2,
                )
            )
        ]
        assert violating, "bug never manifested across 20 seeds"

    def test_bug_harmless_on_unanimous_yes(self):
        for seed in range(5):
            comp = build_two_phase_commit(
                N, seed=seed, unilateral_participant=2
            )
            assert not mixed_outcome_possible(comp)
            assert definitely(comp, all_committed())

    def test_validation(self):
        with pytest.raises(ValueError):
            build_two_phase_commit(0)
