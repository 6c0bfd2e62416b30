"""Predicate language (substrate S6): locals, CNF, conjunctive, relational,
symmetric predicates, boolean combinators, and modalities."""

from repro.predicates.base import (
    AndPredicate,
    ConstantPredicate,
    FunctionPredicate,
    GlobalPredicate,
    NotPredicate,
    OrPredicate,
    conjunction,
    disjunction,
    negation,
)
from repro.predicates.channel import InFlightPredicate, in_flight, quiescent
from repro.predicates.boolean import (
    Clause,
    CNFPredicate,
    clause,
    cnf,
    singular_cnf,
)
from repro.predicates.conjunctive import (
    ConjunctivePredicate,
    conjunctive,
    conjunctive_from_cnf,
    conjunctive_view,
)
from repro.predicates.errors import (
    NotSingularError,
    PredicateError,
    UnsupportedPredicateError,
)
from repro.predicates.inequity import InequityClause, InequityPredicate
from repro.predicates.local import (
    Literal,
    LocalPredicate,
    local,
    local_fn,
    true_events,
)
from repro.predicates.modalities import Modality
from repro.predicates.parser import PredicateSyntaxError, parse_predicate
from repro.predicates.relational import (
    RelationalSumPredicate,
    Relop,
    sum_predicate,
)
from repro.predicates.symmetric import (
    SymmetricPredicate,
    absence_of_simple_majority,
    absence_of_two_thirds_majority,
    all_equal,
    exactly_k_tokens,
    exclusive_or,
    not_all_equal,
    symmetric_from_counts,
    symmetric_from_truth_function,
)

__all__ = [
    "AndPredicate",
    "CNFPredicate",
    "Clause",
    "ConjunctivePredicate",
    "ConstantPredicate",
    "FunctionPredicate",
    "GlobalPredicate",
    "InFlightPredicate",
    "InequityClause",
    "InequityPredicate",
    "Literal",
    "LocalPredicate",
    "Modality",
    "NotPredicate",
    "NotSingularError",
    "OrPredicate",
    "PredicateError",
    "PredicateSyntaxError",
    "RelationalSumPredicate",
    "Relop",
    "SymmetricPredicate",
    "UnsupportedPredicateError",
    "absence_of_simple_majority",
    "absence_of_two_thirds_majority",
    "all_equal",
    "clause",
    "cnf",
    "conjunction",
    "conjunctive",
    "conjunctive_from_cnf",
    "conjunctive_view",
    "disjunction",
    "exactly_k_tokens",
    "exclusive_or",
    "in_flight",
    "local",
    "local_fn",
    "negation",
    "not_all_equal",
    "parse_predicate",
    "quiescent",
    "singular_cnf",
    "sum_predicate",
    "symmetric_from_counts",
    "symmetric_from_truth_function",
    "true_events",
]
