"""Tests for the paper's Figure 3 reduction (Theorem 1)."""

from __future__ import annotations

import pytest

from repro.computation import initial_cut
from repro.detection import (
    detect_by_chain_choice,
    detect_by_process_choice,
)
from repro.events import EventKind
from repro.reductions import (
    CNFFormula,
    assignment_from_witness,
    dpll_solve,
    random_3cnf,
    satisfiability_to_detection,
    to_nonmonotone_3cnf,
    witness_from_assignment,
)

FIG3 = CNFFormula(((1, 2), (-1, -2), (1, -2), (-1, 2)))


class TestGadgetStructure:
    def test_predicate_is_singular_2cnf(self):
        instance = satisfiability_to_detection(FIG3)
        assert instance.predicate.is_singular()
        assert instance.predicate.max_clause_size == 2
        assert len(instance.predicate.clauses) == FIG3.num_clauses

    def test_two_processes_per_clause(self):
        instance = satisfiability_to_detection(FIG3)
        assert instance.computation.num_processes == 2 * FIG3.num_clauses

    def test_one_true_event_per_occurrence(self):
        instance = satisfiability_to_detection(FIG3)
        occurrences = sum(len(cl) for cl in FIG3.clauses)
        assert len(instance.literal_of) == occurrences

    def test_sends_precede_receives_on_every_process(self):
        instance = satisfiability_to_detection(FIG3)
        comp = instance.computation
        for p in range(comp.num_processes):
            last_send = -1
            first_receive = None
            for ev in comp.events_of(p):
                if ev.kind.is_send:
                    last_send = ev.index
                if ev.kind.is_receive and first_receive is None:
                    first_receive = ev.index
            if first_receive is not None:
                assert last_send < first_receive

    def test_no_event_both_sends_and_receives(self):
        instance = satisfiability_to_detection(FIG3)
        for ev in instance.computation.all_events():
            assert ev.kind is not EventKind.SEND_RECEIVE

    def test_positive_precedes_negative_on_shared_process(self):
        formula = CNFFormula(((1, -2, 3),))
        instance = satisfiability_to_detection(formula)
        # Process 0 hosts the positive literal at index 1, negative at 3.
        assert instance.literal_of[(0, 1)] > 0
        assert instance.literal_of[(0, 3)] < 0

    def test_true_events_inconsistent_iff_conflicting(self):
        instance = satisfiability_to_detection(FIG3)
        comp = instance.computation
        events = sorted(instance.literal_of)
        for e in events:
            for f in events:
                if e == f or e[0] == f[0]:
                    continue
                conflicting = (
                    instance.literal_of[e] == -instance.literal_of[f]
                )
                assert comp.pairwise_consistent(e, f) == (not conflicting), (
                    e,
                    f,
                )

    def test_tautological_clauses_dropped(self):
        formula = CNFFormula(((1, -1), (1, 2)))
        instance = satisfiability_to_detection(formula)
        assert instance.formula.clauses == ((1, 2),)

    def test_duplicate_literals_deduped(self):
        formula = CNFFormula(((1, 1, -2),))
        instance = satisfiability_to_detection(formula)
        assert instance.formula.clauses == ((1, -2),)

    def test_monotone_input_rejected(self):
        with pytest.raises(ValueError):
            satisfiability_to_detection(CNFFormula(((1, 2, 3),)))

    def test_unit_clauses_supported(self):
        formula = CNFFormula(((1,), (-1, 2)))
        instance = satisfiability_to_detection(formula)
        result = detect_by_chain_choice(instance.computation, instance.predicate)
        assert result.holds


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(15))
    def test_sat_iff_possibly(self, seed):
        formula, _ = to_nonmonotone_3cnf(random_3cnf(4, 5, seed))
        instance = satisfiability_to_detection(formula)
        satisfiable = dpll_solve(instance.formula) is not None
        detected = detect_by_chain_choice(
            instance.computation, instance.predicate
        )
        assert detected.holds == satisfiable, seed

    @pytest.mark.parametrize("seed", range(8))
    def test_witness_to_assignment(self, seed):
        formula, _ = to_nonmonotone_3cnf(random_3cnf(4, 4, seed))
        instance = satisfiability_to_detection(formula)
        result = detect_by_process_choice(
            instance.computation, instance.predicate
        )
        if result.holds:
            assignment = assignment_from_witness(instance, result.witness)
            assert instance.formula.evaluate(assignment)

    @pytest.mark.parametrize("seed", range(8))
    def test_assignment_to_witness(self, seed):
        formula, _ = to_nonmonotone_3cnf(random_3cnf(4, 4, seed))
        instance = satisfiability_to_detection(formula)
        model = dpll_solve(instance.formula)
        if model is not None:
            witness = witness_from_assignment(instance, model)
            assert instance.predicate.evaluate(witness)

    def test_unsatisfying_assignment_rejected(self):
        instance = satisfiability_to_detection(CNFFormula(((1, 2),)))
        with pytest.raises(ValueError):
            witness_from_assignment(instance, {1: False, 2: False})

    @pytest.mark.parametrize("pairs", [2, 4, 6, 8])
    def test_unsatisfiable_gadget_sweeps_every_combination(self, pairs):
        # (x1)(~x1)...(xp)(~xp): every group is one chain, so there is one
        # combination, and its only node fails when forward checking finds
        # x1's chain incompatible with ~x1's.
        formula = CNFFormula(
            tuple((s * v,) for v in range(1, pairs + 1) for s in (1, -1))
        )
        instance = satisfiability_to_detection(formula)
        result = detect_by_chain_choice(
            instance.computation, instance.predicate
        )
        assert not result.holds
        assert result.stats["combinations"] == 1
        assert result.stats["invocations"] == 1
        assert result.stats["pair_checks"] == 1

    def test_figure3_example_satisfiable(self):
        # (x1 v x2)(~x1 v ~x2)(x1 v ~x2)(~x1 v x2) forces x1 != x2 and
        # x1 == x2 simultaneously... check against DPLL rather than by hand.
        instance = satisfiability_to_detection(FIG3)
        satisfiable = dpll_solve(FIG3) is not None
        result = detect_by_chain_choice(instance.computation, instance.predicate)
        assert result.holds == satisfiable


class TestExplicitRaises:
    """The decoding checks raise explicitly, so ``python -O`` keeps them."""

    def test_misbuilt_gadget_event_raises(self, monkeypatch):
        from repro.computation import ComputationBuilder

        internal = ComputationBuilder.internal

        def shifted(self, process, **values):
            p, i = internal(self, process, **values)
            return p, i + 1

        monkeypatch.setattr(ComputationBuilder, "internal", shifted)
        with pytest.raises(AssertionError, match="was built as"):
            satisfiability_to_detection(FIG3)

    def test_both_polarities_raise(self, monkeypatch):
        from repro.computation import Cut

        instance = satisfiability_to_detection(FIG3)
        witness = initial_cut(instance.computation)
        monkeypatch.setattr(Cut, "passes_through", lambda self, eid: True)
        with pytest.raises(AssertionError, match="both polarities"):
            assignment_from_witness(instance, witness)

    def test_non_satisfying_witness_raises(self):
        formula = CNFFormula(((1,), (2,)))
        instance = satisfiability_to_detection(formula)
        # The initial cut passes through no true event: every variable
        # defaults to False, which falsifies the formula.
        witness = initial_cut(instance.computation)
        with pytest.raises(AssertionError, match="satisfying assignment"):
            assignment_from_witness(instance, witness)

    def test_missing_cut_raises(self, monkeypatch):
        from repro.reductions import sat_to_detection

        instance = satisfiability_to_detection(CNFFormula(((1, 2),)))
        monkeypatch.setattr(
            sat_to_detection, "least_consistent_cut", lambda comp, ids: None
        )
        with pytest.raises(AssertionError, match="must be consistent"):
            witness_from_assignment(instance, {1: True, 2: False})

    def test_non_satisfying_cut_raises(self, monkeypatch):
        from repro.reductions import sat_to_detection

        instance = satisfiability_to_detection(CNFFormula(((1, 2),)))
        initial = initial_cut(instance.computation)
        monkeypatch.setattr(
            sat_to_detection,
            "least_consistent_cut",
            lambda comp, ids: initial,
        )
        with pytest.raises(AssertionError, match="does not satisfy"):
            witness_from_assignment(instance, {1: True, 2: False})
