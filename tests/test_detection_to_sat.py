"""Tests for the SAT encoding of possibly-detection (NP membership)."""

from __future__ import annotations

import pytest

from repro.detection import possibly_enumerate
from repro.predicates import clause, cnf, local
from repro.reductions import (
    detection_to_sat,
    encode_possibly,
    possibly_via_sat,
)
from repro.trace import BoolVar, random_computation


def random_cnf_predicate(comp, seed):
    """A small, possibly non-singular CNF predicate over the trace."""
    import random

    rng = random.Random(seed)
    n = comp.num_processes
    clauses = []
    for _ in range(rng.randint(1, 3)):
        width = rng.randint(1, min(3, n))
        processes = rng.sample(range(n), width)
        literals = [
            local(p, "x", negated=rng.random() < 0.5) for p in processes
        ]
        clauses.append(clause(*literals))
    return cnf(*clauses)


class TestEncoding:
    def test_witness_decoded_is_consistent(self, figure2):
        pred = cnf(clause(local(1, "x")), clause(local(2, "x")))
        witness = possibly_via_sat(figure2, pred)
        assert witness is not None
        assert witness.is_consistent()
        assert pred.evaluate(witness)

    def test_unsatisfiable_clause_handled(self, figure2):
        pred = cnf(clause(local(0, "missing")))
        assert possibly_via_sat(figure2, pred) is None

    @pytest.mark.parametrize(
        "assignment, message",
        # {}: the initial cut, where no x holds.  {3: True}: the receive
        # g = (2, 1) without its send f — an inconsistent cut.
        [({}, "does not satisfy"), ({3: True}, "inconsistent cut")],
    )
    def test_bad_assignment_raises(
        self, figure2, monkeypatch, assignment, message
    ):
        """The witness checks raise explicitly, so they also run under
        ``python -O``."""
        monkeypatch.setattr(
            detection_to_sat, "dpll_solve", lambda formula: assignment
        )
        pred = cnf(clause(local(1, "x")), clause(local(2, "x")))
        with pytest.raises(AssertionError, match=message):
            possibly_via_sat(figure2, pred)

    def test_encoding_object_exposes_formula(self, figure2):
        pred = cnf(clause(local(0, "x")))
        encoding = encode_possibly(figure2, pred)
        assert encoding.formula.num_clauses >= 1

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_enumeration(self, seed):
        comp = random_computation(
            3, 3, 0.5, seed=seed, variables=[BoolVar("x", 0.35)]
        )
        pred = random_cnf_predicate(comp, seed)
        via_sat = possibly_via_sat(comp, pred)
        via_enum = possibly_enumerate(comp, pred)
        assert (via_sat is not None) == via_enum.holds, seed

    @pytest.mark.parametrize("seed", range(10))
    def test_non_singular_predicates_supported(self, seed):
        comp = random_computation(
            2, 3, 0.5, seed=seed, variables=[BoolVar("x", 0.4)]
        )
        # Both clauses mention process 0: not singular, still encodable.
        pred = cnf(
            clause(local(0, "x"), local(1, "x")),
            clause(local(0, "x", negated=True)),
        )
        via_sat = possibly_via_sat(comp, pred)
        via_enum = possibly_enumerate(comp, pred)
        assert (via_sat is not None) == via_enum.holds
