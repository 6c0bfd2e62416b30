"""Tests for the predicate DSL parser."""

from __future__ import annotations

import pytest

from repro.detection import detect, possibly
from repro.predicates import (
    AndPredicate,
    CNFPredicate,
    Literal,
    NotPredicate,
    OrPredicate,
    PredicateSyntaxError,
    RelationalSumPredicate,
    Relop,
    SymmetricPredicate,
    parse_predicate,
)


class TestAtoms:
    def test_literal(self):
        pred = parse_predicate("x@3")
        assert isinstance(pred, CNFPredicate)
        (cl,) = pred.clauses
        assert cl.literals == (Literal(3, "x"),)

    def test_negated_literal_folds_into_cnf(self):
        pred = parse_predicate("!x@0")
        assert isinstance(pred, CNFPredicate)
        (cl,) = pred.clauses
        assert cl.literals == (Literal(0, "x", negated=True),)

    def test_sum_atom(self):
        pred = parse_predicate("sum(v) <= 3")
        assert isinstance(pred, RelationalSumPredicate)
        assert pred.variable == "v"
        assert pred.relop is Relop.LE
        assert pred.constant == 3

    def test_sum_with_equals_sign(self):
        pred = parse_predicate("sum(v) = -2")
        assert pred.relop is Relop.EQ
        assert pred.constant == -2

    def test_count_relop(self):
        pred = parse_predicate("count(busy) >= 2", num_processes=5)
        assert isinstance(pred, SymmetricPredicate)
        assert pred.counts == frozenset({2, 3, 4, 5})

    def test_count_in_set(self):
        pred = parse_predicate("count(x) in {0, 2}", num_processes=3)
        assert isinstance(pred, SymmetricPredicate)
        assert pred.counts == frozenset({0, 2})

    def test_count_requires_num_processes(self):
        with pytest.raises(PredicateSyntaxError):
            parse_predicate("count(x) >= 1")

    def test_count_empty_set_is_constant_false(self, figure2):
        pred = parse_predicate("count(x) > 9", num_processes=4)
        assert not possibly(figure2, pred)

    def test_inflight_atom(self, figure2):
        assert possibly(figure2, parse_predicate("inflight == 1"))
        assert not possibly(figure2, parse_predicate("inflight >= 2"))

    def test_inflight_with_source(self, figure2):
        assert possibly(figure2, parse_predicate("inflight(1) == 1"))
        assert not possibly(figure2, parse_predicate("inflight(0) >= 1"))

    def test_inflight_composes(self, figure2):
        pred = parse_predicate("x@0 & inflight == 1")
        assert possibly(figure2, pred)


class TestStructure:
    def test_conjunction_of_literals_is_cnf(self):
        pred = parse_predicate("x@0 & x@1 & x@2")
        assert isinstance(pred, CNFPredicate)
        assert pred.is_conjunctive()
        assert pred.is_singular()

    def test_singular_2cnf_shape(self):
        pred = parse_predicate("(x@0 | x@1) & (x@2 | x@3)")
        assert isinstance(pred, CNFPredicate)
        assert pred.is_singular()
        assert pred.max_clause_size == 2

    def test_mixed_predicates_compose(self):
        pred = parse_predicate("x@0 & sum(v) == 1")
        assert isinstance(pred, AndPredicate)

    def test_or_over_non_literals(self):
        pred = parse_predicate("sum(v) == 0 | sum(v) == 2")
        assert isinstance(pred, OrPredicate)

    def test_negation_of_group(self):
        pred = parse_predicate("!(x@0 & x@1)")
        assert isinstance(pred, NotPredicate)

    def test_precedence_and_binds_tighter(self):
        pred = parse_predicate("x@0 | x@1 & x@2")
        # Parsed as x@0 | (x@1 & x@2): a disjunction at the top, which is
        # not CNF-convertible without expansion, so it stays composed.
        assert isinstance(pred, OrPredicate)

    def test_parentheses(self):
        pred = parse_predicate("(x@0 | x@1) & x@2")
        assert isinstance(pred, CNFPredicate)
        assert len(pred.clauses) == 2


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x@",
            "@3",
            "x@0 &",
            "x@0 x@1",
            "(x@0",
            "sum(v) ==",
            "sum v == 1",
            "count(x) in {1",
            "x@-1",
            "x@4",
            "x@0 & (x@1 | !x@9)",
            "x@0 & & x@1",
            "x # y",
            "inflight(4) == 0",
            "inflight(-1) == 0",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(PredicateSyntaxError):
            parse_predicate(text, num_processes=4)

    def test_bad_relop(self):
        from repro.predicates import PredicateError

        with pytest.raises(PredicateError):
            parse_predicate("sum(v) ~ 3")


class TestSemantics:
    def test_parsed_equals_programmatic(self, figure2):
        parsed = parse_predicate("(x@0 | x@1) & (x@2 | x@3)")
        result = detect(figure2, parsed)
        assert result.holds
        assert result.algorithm in ("cpdsc", "chain-choice")

    def test_whitespace_insensitive(self, figure2):
        a = parse_predicate("x@0&x@1")
        b = parse_predicate("  x@0   &  x@1 ")
        assert possibly(figure2, a) == possibly(figure2, b)

    def test_complex_query_end_to_end(self, figure2):
        pred = parse_predicate(
            "(x@0 | x@1) & count(x) in {1, 2}", num_processes=4
        )
        assert possibly(figure2, pred)
