"""Shared workload builders for the benchmark suite.

Every benchmark draws its computations from here so that the parameters
recorded in EXPERIMENTS.md correspond exactly to what the timed code saw.
All workloads are seeded; re-running regenerates identical inputs.
"""

from __future__ import annotations

import math
import random
from typing import List

from repro.computation import Computation, ComputationBuilder
from repro.detection.work_optimal import RankScanner, rank_chunks
from repro.predicates import (
    CNFPredicate,
    ConjunctivePredicate,
    clause,
    conjunctive,
    local,
    singular_cnf,
)
from repro.reductions import SubsetSumInstance
from repro.trace import (
    ArbitraryWalkVar,
    BoolVar,
    UnitWalkVar,
    grouped_computation,
    random_computation,
)

#: Default per-event probability of sending / receiving a message.
MESSAGE_DENSITY = 0.2
#: Default probability that a boolean variable is true after an event.
TRUE_DENSITY = 0.3


def conjunctive_workload(
    num_processes: int, events_per_process: int = 64, seed: int = 1
):
    """Random boolean trace plus the all-processes conjunctive predicate."""
    comp = random_computation(
        num_processes,
        events_per_process,
        MESSAGE_DENSITY,
        seed=seed,
        variables=[BoolVar("x", TRUE_DENSITY)],
    )
    pred = conjunctive(*(local(p, "x") for p in range(num_processes)))
    return comp, pred


def singular_workload(
    num_groups: int,
    group_size: int,
    events_per_process: int = 16,
    seed: int = 1,
    ordering=None,
):
    """Grouped boolean trace plus the per-group disjunction predicate."""
    comp = grouped_computation(
        num_groups,
        group_size,
        events_per_process,
        message_density=MESSAGE_DENSITY,
        seed=seed,
        variables=[BoolVar("x", TRUE_DENSITY)],
        ordering=ordering,
    )
    clauses = []
    for g in range(num_groups):
        literals = [
            local(g * group_size + i, "x") for i in range(group_size)
        ]
        clauses.append(clause(*literals))
    return comp, singular_cnf(*clauses)


def unit_walk_workload(
    num_processes: int, events_per_process: int = 32, seed: int = 1
) -> Computation:
    """±1 integer walks on every process (Section 4.2 regime)."""
    return random_computation(
        num_processes,
        events_per_process,
        MESSAGE_DENSITY,
        seed=seed,
        variables=[UnitWalkVar("v", p_up=0.45, p_down=0.35, floor=None)],
    )


def arbitrary_walk_workload(
    num_processes: int, events_per_process: int = 32, seed: int = 1
) -> Computation:
    """Arbitrary-increment walks (the NP-complete regime of Theorem 2)."""
    return random_computation(
        num_processes,
        events_per_process,
        MESSAGE_DENSITY,
        seed=seed,
        variables=[ArbitraryWalkVar("v", max_step=50)],
    )


def exponential_subset_sum(num_elements: int) -> SubsetSumInstance:
    """Powers-of-two sizes: every subset has a distinct sum, so the exact
    engine's reachable-sum set doubles per element — the worst case that
    makes Theorem 2's hardness visible as running time."""
    sizes = tuple(2**j for j in range(num_elements))
    # Target the middle value: representable, forcing full exploration.
    target = (2**num_elements) // 2 + 1
    return SubsetSumInstance(sizes, target)


def chain_structured_group(
    num_groups: int,
    group_size: int,
    chains_per_group: int,
    events_per_process: int = 6,
    seed: int = 1,
    satisfiable: bool = True,
):
    """Groups whose true events form ``chains_per_group`` causal chains.

    Within each group, processes are wired into ``chains_per_group``
    pipelines: each process forwards a message to the next process of its
    pipeline after every true event, so the group's true events split into
    that many chains regardless of ``group_size``.  This is the trace
    family where the paper's Section 3.3 chain-cover enumeration beats the
    one-process-per-group enumeration by (group_size / chains)^groups.

    With ``satisfiable=False`` consecutive groups are sequentialized
    through extra *false* barrier events — every true event of group g has
    its successor happen-before every true event of group g+1, so no
    pairwise-consistent selection exists and both engines must exhaust
    their full combination sweep before refuting (the worst case the
    exponents describe).
    """
    if chains_per_group > group_size:
        raise ValueError("cannot have more chains than processes")
    n = num_groups * group_size
    builder = ComputationBuilder(n)
    for p in range(n):
        builder.init_values(p, x=False)

    clauses = []
    previous_tails: List = []  # barrier send events of the previous group
    for g in range(num_groups):
        members = [g * group_size + i for i in range(group_size)]
        clauses.append(clause(*(local(p, "x") for p in members)))
        # Partition members into pipelines round-robin.
        pipelines: List[List[int]] = [
            members[c::chains_per_group] for c in range(chains_per_group)
        ]
        tails: List = []
        for pipeline in pipelines:
            previous_send = None
            for rank, p in enumerate(pipeline):
                # Gate (false receive): from the previous process of the
                # pipeline, plus — for the head in unsatisfiable mode —
                # from every flush of the previous group.
                sources = []
                if previous_send is not None:
                    sources.append(previous_send)
                if rank == 0 and not satisfiable and previous_tails:
                    sources.extend(previous_tails)
                if sources:
                    gate = builder.receive(p, x=False)
                    for source in sources:
                        builder.message(source, gate)
                for _ in range(events_per_process):
                    builder.internal(p, x=True)
                # Flush (false send): to the next process of the pipeline,
                # or — for the tail in unsatisfiable mode — to the next
                # group's gates.  It succeeds every true event of p, which
                # is what makes the cross-group inconsistency total.
                needs_flush = rank < len(pipeline) - 1 or (
                    not satisfiable and g + 1 < num_groups
                )
                if needs_flush:
                    previous_send = builder.send(p, x=False)
                    if rank == len(pipeline) - 1:
                        tails.append(previous_send)
        previous_tails = tails
    return builder.build(), singular_cnf(*clauses)


def general_cnf_workload(satisfiable: bool, events_per_process: int = 12):
    """A non-singular 7-clause 3-CNF over ``x`` on eight processes.

    Clause ``j`` is ``x@j | x@(j+1) | x@(j+3)`` (mod 8), so neighbouring
    clauses share processes and no process is in every clause.  The
    trace is :func:`chain_structured_group` with four groups of two, one
    pipeline each, so the two processes of a group are never true
    together.  With ``satisfiable=False`` the groups are sequentialized
    too: no two processes are ever true together, so every one of the
    ``3^7 = 2187`` literal choices (each puts literals on at least two
    processes) must be refuted.
    """
    comp, _ = chain_structured_group(
        4,
        2,
        chains_per_group=1,
        events_per_process=events_per_process,
        satisfiable=satisfiable,
    )
    clauses = [
        clause(*(local((j + k) % 8, "x") for k in (0, 1, 3)))
        for j in range(7)
    ]
    return comp, CNFPredicate(clauses)


def random_cnf_workload(seed: int):
    """A seeded 7-clause 3-CNF over ``x`` on an 8-process random trace.

    40 events per process, message density 0.3, ``x`` true with
    probability 0.2; each clause names three distinct processes with
    random polarities, so clauses share processes and many literal
    choices pair ``x`` with ``not x`` on one process.
    """
    rng = random.Random(seed)
    comp = random_computation(
        8, 40, 0.3, seed=seed, variables=[BoolVar("x", 0.2)]
    )
    clauses = [
        clause(
            *(
                local(p, "x", negated=rng.random() < 0.5)
                for p in rng.sample(range(8), 3)
            )
        )
        for _ in range(7)
    ]
    return comp, CNFPredicate(clauses)


def serial_rank_walk(comp: Computation, per_group_chains):
    """The combination driver's serial sweep, without its pool gate.

    A :class:`~repro.detection.work_optimal.RankScanner` walks every rank
    chunk in order; returns ``(rank, selection, invocations, advances)``
    with ``(None, None, ...)`` when no combination succeeds.  The
    reference the worker-pool experiments and tests compare against.
    """
    scanner = RankScanner(comp, per_group_chains)
    total = math.prod(len(chains) for chains in per_group_chains)
    invocations = advances = 0
    for start, stop in rank_chunks(total):
        rank, selection, inv, adv = scanner.scan(start, stop)
        invocations += inv
        advances += adv
        if selection is not None:
            return rank, selection, invocations, advances
    return None, None, invocations, advances
