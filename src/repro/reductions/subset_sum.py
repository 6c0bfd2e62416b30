"""SUBSET-SUM and its reduction to sum-predicate detection (paper, §4.1).

Theorem 2 proves ``possibly(x_1 + ... + x_n = k)`` NP-complete when
variables may change by arbitrary amounts, by reduction from SUBSET-SUM
(Garey & Johnson, problem SP13): element ``a_j`` becomes a process whose
single event sets its variable from 0 to ``a_j``; a consistent cut chooses
a subset of the events (they are pairwise concurrent), so a cut with sum
exactly ``k`` exists iff a subset of the sizes sums to ``k``.

The module provides the instance type, an exact dynamic-programming solver
(pseudo-polynomial — exactly the complexity-theoretic status the paper
relies on), the reduction, and certificate translation in both directions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.computation import Computation, ComputationBuilder, Cut
from repro.predicates.relational import RelationalSumPredicate, Relop

__all__ = [
    "SubsetSumInstance",
    "solve_subset_sum",
    "subset_sum_to_detection",
    "subset_from_witness",
    "witness_from_subset",
    "random_instance",
]

#: Name of the integer variable hosted by every reduction process.
SUM_VARIABLE = "x"


@dataclass(frozen=True)
class SubsetSumInstance:
    """A SUBSET-SUM instance: positive sizes and a positive target."""

    sizes: Tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        if any(size <= 0 for size in self.sizes):
            raise ValueError("sizes must be positive integers")
        if self.target <= 0:
            raise ValueError("target must be a positive integer")


def solve_subset_sum(instance: SubsetSumInstance) -> Optional[List[int]]:
    """Exact solver; returns indices of a subset summing to the target.

    Classic reachable-sums dynamic program with parent pointers:
    O(n * number of reachable sums <= n * target) time — pseudo-polynomial,
    i.e. exponential in the bit-size of the sizes.
    """
    parent: Dict[int, Tuple[int, int]] = {}  # sum -> (previous sum, index)
    reachable = {0}
    for index, size in enumerate(instance.sizes):
        additions = []
        for total in reachable:
            candidate = total + size
            if candidate <= instance.target and candidate not in reachable:
                if candidate not in parent:
                    parent[candidate] = (total, index)
                additions.append(candidate)
        reachable.update(additions)
        if instance.target in reachable:
            break
    if instance.target not in reachable:
        return None
    subset: List[int] = []
    total = instance.target
    while total != 0:
        total, index = parent[total]
        subset.append(index)
    subset.reverse()
    return subset


def subset_sum_to_detection(
    instance: SubsetSumInstance,
) -> Tuple[Computation, RelationalSumPredicate]:
    """The paper's Theorem 2 reduction: one process per element.

    Process j starts with ``x = 0`` and has a single internal event setting
    ``x = sizes[j]``; the target becomes the predicate constant.
    """
    builder = ComputationBuilder(len(instance.sizes))
    for j, size in enumerate(instance.sizes):
        builder.init_values(j, **{SUM_VARIABLE: 0})
        builder.internal(j, **{SUM_VARIABLE: size})
    predicate = RelationalSumPredicate(SUM_VARIABLE, Relop.EQ, instance.target)
    return builder.build(), predicate


def subset_from_witness(instance: SubsetSumInstance, witness: Cut) -> List[int]:
    """Indices whose events the witness cut executed; sums to the target.

    Raises AssertionError (explicitly, so ``python -O`` keeps it) when the
    executed elements do not sum to the target.
    """
    subset = [
        j for j in range(len(instance.sizes)) if witness.frontier[j] == 2
    ]
    total = sum(instance.sizes[j] for j in subset)
    if total != instance.target:
        raise AssertionError(
            f"witness subset sums to {total}, not {instance.target}"
        )
    return subset


def witness_from_subset(
    computation: Computation, subset: List[int]
) -> Cut:
    """The consistent cut executing exactly the subset's events.

    Raises AssertionError (explicitly, so ``python -O`` keeps it) when that
    cut is inconsistent.
    """
    frontier = [1] * computation.num_processes
    for j in subset:
        frontier[j] = 2
    cut = Cut(computation, frontier)
    if not cut.is_consistent():
        raise AssertionError(f"subset cut {cut.frontier} is inconsistent")
    return cut


def random_instance(
    num_elements: int,
    max_size: int,
    seed: int,
    solvable: Optional[bool] = None,
) -> SubsetSumInstance:
    """Seeded random instance.

    ``solvable=True`` picks the target as the sum of a random non-empty
    subset; ``solvable=False`` retries targets until the DP refutes them
    (falling back to an impossible odd target over even sizes when
    possible); ``None`` draws the target uniformly.
    """
    if num_elements <= 0:
        raise ValueError("need at least one element")
    rng = random.Random(seed)
    sizes = tuple(rng.randint(1, max_size) for _ in range(num_elements))
    total = sum(sizes)
    if solvable is True:
        count = rng.randint(1, num_elements)
        subset = rng.sample(range(num_elements), count)
        target = sum(sizes[j] for j in subset)
        return SubsetSumInstance(sizes, target)
    if solvable is False:
        for _ in range(64):
            target = rng.randint(1, total)
            candidate = SubsetSumInstance(sizes, target)
            if solve_subset_sum(candidate) is None:
                return candidate
        # Dense instances may reach every value up to the total; exceed it.
        return SubsetSumInstance(sizes, total + 1)
    return SubsetSumInstance(sizes, rng.randint(1, total))
