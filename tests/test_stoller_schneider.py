"""Tests for the Stoller–Schneider literal-choice CNF engine."""

from __future__ import annotations

import itertools

import pytest

from repro.computation import ComputationBuilder, least_consistent_cut
from repro.detection import (
    detect_cnf_by_literal_choice,
    find_consistent_selection,
    possibly_enumerate,
)
from repro.detection.work_optimal import (
    VEC_CHUNK,
    VEC_MIN_COMBINATIONS,
    RankScanner,
    use_batched_sweep,
)
from repro.detection.work_optimal import combination_at
from repro.predicates import clause, cnf, local
from repro.predicates.local import true_events
from repro.reductions import possibly_via_sat
from repro.trace import BoolVar, random_computation


def random_cnf_predicate(comp, seed, num_clauses=3, max_width=3):
    import random

    rng = random.Random(seed)
    n = comp.num_processes
    clauses = []
    for _ in range(rng.randint(1, num_clauses)):
        width = rng.randint(1, min(max_width, n))
        processes = rng.sample(range(n), width)
        literals = [
            local(p, "x", negated=rng.random() < 0.5) for p in processes
        ]
        clauses.append(clause(*literals))
    return cnf(*clauses)


class TestAgainstOracles:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_sat_oracle_on_non_singular_cnf(self, seed):
        comp = random_computation(
            3, 4, 0.5, seed=seed, variables=[BoolVar("x", 0.4)]
        )
        pred = random_cnf_predicate(comp, seed)
        oracle = possibly_via_sat(comp, pred) is not None
        result = detect_cnf_by_literal_choice(comp, pred)
        assert result.holds == oracle, seed
        if result.holds:
            assert pred.evaluate(result.witness)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration(self, seed):
        comp = random_computation(
            3, 3, 0.5, seed=seed, variables=[BoolVar("x", 0.4)]
        )
        pred = random_cnf_predicate(comp, seed + 100)
        fast = detect_cnf_by_literal_choice(comp, pred)
        slow = possibly_enumerate(comp, pred)
        assert fast.holds == slow.holds


def many_clause_predicate(seed, n, num_clauses, width):
    """A CNF of ``num_clauses`` clauses of ``width`` literals over ``n``
    processes: more clauses than processes, so clauses share processes;
    literals take both polarities."""
    import random

    rng = random.Random(seed)
    return cnf(
        *(
            clause(
                *(
                    local(p, "x", negated=rng.random() < 0.5)
                    for p in rng.sample(range(n), width)
                )
            )
            for _ in range(num_clauses)
        )
    )


def first_success_in_product_order(comp, pred):
    """Reference search: the least consistent selection of the first
    literal choice, in ``itertools.product`` order, that admits one."""
    per_clause = [
        [true_events(comp, lit) for lit in cl.literals] for cl in pred.clauses
    ]
    for choice in itertools.product(*per_clause):
        selection = find_consistent_selection(comp, choice)
        if selection is not None:
            return least_consistent_cut(comp, selection)
    return None


class TestManyCombinations:
    """At least ``VEC_MIN_COMBINATIONS`` literal choices: the batched
    kernel with numpy, the per-rank scan under ``REPRO_NO_NUMPY=1``."""

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_sat_oracle_and_reference_witness(self, seed):
        comp = random_computation(
            3, 4, 0.4, seed=seed, variables=[BoolVar("x", 0.5)]
        )
        pred = many_clause_predicate(seed, 3, num_clauses=7, width=2)
        result = detect_cnf_by_literal_choice(comp, pred)
        assert result.stats["combinations"] == 128 >= VEC_MIN_COMBINATIONS
        assert result.holds == (possibly_via_sat(comp, pred) is not None)
        reference = first_success_in_product_order(comp, pred)
        if result.holds:
            assert pred.evaluate(result.witness)
            assert result.witness.frontier == reference.frontier
        else:
            assert reference is None
            assert result.stats["invocations"] == 128


def one_true_event():
    """Process 0's ``x`` holds at its one event; process 1's ``y`` and
    ``z`` never hold, so a literal choice naming either fails at once."""
    builder = ComputationBuilder(2)
    builder.init_values(0, x=False)
    builder.init_values(1, y=False, z=False)
    builder.internal(0, x=True)
    builder.internal(1, y=False, z=False)
    return builder.build()


X, Y, Z = local(0, "x"), local(1, "y"), local(1, "z")


class TestHugeCombinationSpaces:
    """Clause counts put no bound on the literal choices: 3^30 and 3^40
    (more than an int64 counts) must still be swept lazily, and a choice
    that holds early must be found at once."""

    def test_first_choice_holds_among_3_to_the_30(self):
        comp = one_true_event()
        pred = cnf(*(clause(X, Y, Z) for _ in range(30)))
        result = detect_cnf_by_literal_choice(comp, pred)
        assert result.holds
        assert result.witness.frontier == (2, 1)
        assert result.stats["combinations"] == 3**30
        # One scan per rank, or the whole first block when batched.
        batched = use_batched_sweep(3**30)
        assert result.stats["invocations"] == (VEC_CHUNK if batched else 1)

    def test_choice_at_rank_242_among_3_to_the_40(self):
        # The last five clauses (the fastest digits) must choose x@0, so
        # the first success is rank 2 * (3^4 + ... + 1) = 242: inside the
        # first batched block with numpy, the 243rd scan without.
        comp = one_true_event()
        pred = cnf(
            *(clause(X, Y, Z) for _ in range(35)),
            *(clause(Y, Z, X) for _ in range(5)),
        )
        result = detect_cnf_by_literal_choice(comp, pred)
        assert result.holds
        assert result.witness.frontier == (2, 1)
        assert result.stats["combinations"] == 3**40 > 2**63
        batched = use_batched_sweep(3**40)
        assert result.stats["invocations"] == (VEC_CHUNK if batched else 243)

    def test_ranks_above_int64_decode_in_product_order(self):
        # Now the first 35 clauses must choose x@0 (their last literal)
        # and the last five their first: the first success is rank
        # 3^40 - 3^5, far above 2^63.
        comp = one_true_event()
        per_clause = [[[], [], [(0, 1)]]] * 35 + [[[(0, 1)], [], []]] * 5
        total = 3**40
        rank, selection, _, _ = RankScanner(comp, per_clause).scan(
            total - 4096, total
        )
        assert rank == total - 3**5
        assert combination_at(per_clause, rank) == [[(0, 1)]] * 40
        assert selection == [(0, 1)] * 40


class TestMechanics:
    def test_contradictory_choice_fails_in_scan(self, figure2):
        pred = cnf(
            clause(local(0, "x")),
            clause(local(0, "x", negated=True)),
        )
        result = detect_cnf_by_literal_choice(figure2, pred)
        assert not result.holds
        assert result.stats["invocations"] == 1
        assert "contradictory" not in result.stats

    def test_shared_process_literals_merge(self, figure2):
        # Two clauses both forcing process 0: x and (x or x@1).
        pred = cnf(
            clause(local(0, "x")),
            clause(local(0, "x"), local(1, "x")),
        )
        result = detect_cnf_by_literal_choice(figure2, pred)
        assert result.holds
        assert pred.evaluate(result.witness)

    def test_combination_count(self, figure2):
        pred = cnf(
            clause(local(0, "x"), local(1, "x")),
            clause(local(1, "x"), local(2, "x"), local(3, "x")),
        )
        result = detect_cnf_by_literal_choice(figure2, pred)
        assert result.stats["combinations"] == 6

    def test_singular_input_also_works(self, figure2):
        pred = cnf(
            clause(local(0, "x"), local(1, "x")),
            clause(local(2, "x"), local(3, "x")),
        )
        result = detect_cnf_by_literal_choice(figure2, pred)
        assert result.holds

    def test_facade_routes_non_singular_cnf_here(self):
        from repro.detection import detect

        comp = random_computation(
            3, 3, 0.4, seed=9, variables=[BoolVar("x", 0.5)]
        )
        pred = cnf(
            clause(local(0, "x"), local(1, "x")),
            clause(local(0, "x", negated=True), local(2, "x")),
        )
        result = detect(comp, pred)
        assert result.algorithm == "stoller-schneider"
