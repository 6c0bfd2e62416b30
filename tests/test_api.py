"""Tests for the one-call detection facade and its dispatch table."""

from __future__ import annotations

import pytest

from repro.detection import definitely, detect, possibly
from repro.predicates import (
    FunctionPredicate,
    Modality,
    clause,
    cnf,
    conjunctive,
    disjunction,
    exactly_k_tokens,
    local,
    singular_cnf,
    sum_predicate,
)
from repro.trace import BoolVar, UnitWalkVar, random_computation


@pytest.fixture
def comp():
    return random_computation(
        4, 5, 0.4, seed=20,
        variables=[BoolVar("x", 0.4), UnitWalkVar("v")],
    )


class TestDispatch:
    def test_conjunctive_uses_cpdhb(self, comp):
        pred = conjunctive(local(0, "x"), local(1, "x"))
        assert detect(comp, pred).algorithm == "cpdhb"

    def test_single_local_predicate(self, comp):
        pred = local(0, "x")
        result = detect(comp, pred)
        assert result.algorithm == "cpdhb"

    def test_one_cnf_as_conjunctive(self, comp):
        pred = cnf(clause(local(0, "x")), clause(local(1, "x")))
        assert detect(comp, pred).algorithm == "cpdhb"

    def test_singular_cnf_routed(self, comp):
        pred = singular_cnf(
            clause(local(0, "x"), local(1, "x")),
            clause(local(2, "x"), local(3, "x")),
        )
        result = detect(comp, pred)
        assert result.algorithm in ("cpdsc", "chain-choice")

    def test_non_singular_cnf_uses_literal_choice(self, comp):
        pred = cnf(
            clause(local(0, "x"), local(1, "x")),
            clause(local(0, "x", negated=True), local(2, "x")),
        )
        assert detect(comp, pred).algorithm == "stoller-schneider"

    def test_relational_routed(self, comp):
        pred = sum_predicate("v", "==", 2)
        assert detect(comp, pred).algorithm == "theorem7-unit-step"

    def test_symmetric_routed(self, comp):
        pred = exactly_k_tokens("x", 4, 2)
        assert detect(comp, pred).algorithm == "symmetric-unit-step"

    def test_disjunction_distributes(self, comp):
        pred = disjunction(
            conjunctive(local(0, "x"), local(1, "x")),
            sum_predicate("v", ">=", 1),
        )
        result = detect(comp, pred)
        if result.holds:
            assert result.algorithm.startswith("disjunction:")

    def test_function_predicate_enumerates(self, comp):
        pred = FunctionPredicate(lambda cut: cut.size() == 3, "size3")
        assert detect(comp, pred).algorithm == "cooper-marzullo"

    def test_definitely_modality(self, comp):
        pred = sum_predicate("v", ">=", 0)
        result = detect(comp, pred, Modality.DEFINITELY)
        assert result.holds  # sums start at 0

    @pytest.mark.parametrize("modality", ["definitely", "possibly", None, 1])
    def test_non_modality_rejected_up_front(self, comp, modality):
        pred = conjunctive(local(0, "x"), local(1, "x"))
        with pytest.raises(TypeError) as err:
            detect(comp, pred, modality)
        assert "Modality.POSSIBLY" in str(err.value)
        assert "Modality.DEFINITELY" in str(err.value)


class TestSemantics:
    def test_possibly_definitely_booleans(self, comp):
        pred = conjunctive(local(0, "x"), local(1, "x"))
        assert isinstance(possibly(comp, pred), bool)
        assert isinstance(definitely(comp, pred), bool)

    def test_definitely_implies_possibly(self, comp):
        predicates = [
            sum_predicate("v", ">=", 1),
            exactly_k_tokens("x", 4, 1),
            conjunctive(local(0, "x")),
        ]
        for pred in predicates:
            if definitely(comp, pred):
                assert possibly(comp, pred)

    def test_disjunction_equivalence(self, comp):
        a = conjunctive(local(0, "x"), local(1, "x"))
        b = conjunctive(local(2, "x"), local(3, "x"))
        assert possibly(comp, disjunction(a, b)) == (
            possibly(comp, a) or possibly(comp, b)
        )

    def test_facade_agrees_with_enumeration(self):
        from repro.detection import possibly_enumerate

        for seed in range(6):
            comp = random_computation(
                3, 4, 0.5, seed=seed, variables=[BoolVar("x", 0.4)]
            )
            pred = conjunctive(local(0, "x"), local(2, "x"))
            assert possibly(comp, pred) == possibly_enumerate(comp, pred).holds
