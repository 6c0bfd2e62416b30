"""The per-literal true-event memo against per-event reference scans.

:meth:`CausalityIndex.literal_true_events` is the one source of the true
events CPDHB, the slicer, the literal-choice sweep and the clause memos
read.  On seeded computations — with non-boolean values, a variable
missing from some events and processes holding only their initial
event — it must equal :func:`true_events`, and each reader must
equal the per-event scan it replaced.  The clause memos are keyed by the
clause's literals, so re-parsed predicates hit them and leave no
predicate behind.
"""

from __future__ import annotations

import random
import re
import weakref

import pytest

from repro.computation import Computation
from repro.detection import detect
from repro.perf import CausalityIndex
from repro.predicates.boolean import clause
from repro.predicates.conjunctive import conjunctive
from repro.predicates.local import Literal, local, true_events
from repro.predicates.parser import parse_predicate
from repro.slicing.slice import ConjunctiveSlice
from repro.trace import BoolVar, random_computation
from repro.trace.io import computation_from_dict, computation_to_dict

SEEDS = range(300)

#: Values a variable takes: booleans, then falsy and truthy non-booleans.
VALUES = (True, False, 0, 1, 2, "", "on", None)


def build(seed: int) -> Computation:
    """A random computation whose ``x`` takes any of :data:`VALUES`.

    ``x`` is missing after some events; ``y`` stays boolean.  Every fifth
    seed has no non-initial events at all.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    events = 0 if seed % 5 == 0 else rng.randint(1, 8)
    comp = random_computation(
        n,
        events,
        message_density=0.3,
        seed=seed,
        variables=[BoolVar("x"), BoolVar("y")],
    )
    payload = computation_to_dict(comp)
    for process in payload["processes"]:
        for event in process:
            if rng.random() < 0.2:
                del event["values"]["x"]
            else:
                event["values"]["x"] = rng.choice(VALUES)
    return computation_from_dict(payload)


def literals(n: int):
    for p in range(n):
        for var in ("x", "y", "missing"):
            for negated in (False, True):
                yield Literal(p, var, negated)


def scan(comp: Computation, p: int, holds) -> list:
    """Per-event reference: ids of the events of ``p`` where ``holds``."""
    return [e.event_id for e in comp.events_of(p) if holds(e)]


@pytest.mark.parametrize("seed", SEEDS)
def test_literal_memo_matches_true_events(seed):
    comp = build(seed)
    index = CausalityIndex.of(comp)
    for lit in literals(comp.num_processes):
        memo = index.literal_true_events(lit)
        assert list(memo) == true_events(comp, lit)
        # A second call, also through an equal literal, is a cache hit.
        same = Literal(lit.process, lit.variable, lit.negated)
        assert index.literal_true_events(same) is memo


@pytest.mark.parametrize("seed", SEEDS)
def test_readers_match_per_event_scans(seed):
    comp = build(seed)
    n = comp.num_processes
    index = CausalityIndex.of(comp)
    rng = random.Random(seed)
    for p in range(n):
        lits = rng.sample(list(literals(n))[6 * p : 6 * p + 6], 2)
        # Slicer: the indices of the conjunct's true events.
        sl = ConjunctiveSlice(comp, conjunctive(lits[0]))
        assert sl._true_indices[p] == [
            i for _, i in scan(comp, p, lits[0].holds_after)
        ]
    # Clauses over any processes, duplicates and both polarities included.
    for _ in range(4):
        cl = clause(*rng.choices(list(literals(n)), k=rng.randint(1, 4)))
        for p in range(n):
            mine = [lit for lit in cl.literals if lit.process == p]
            assert list(index.clause_true_events_on(cl, p)) == scan(
                comp, p, lambda e: any(lit.holds_after(e) for lit in mine)
            )


def test_literal_memo_counts_hits_and_misses():
    comp = build(7)
    index = CausalityIndex.of(comp)
    index.literal_true_events(local(0, "x"))
    index.literal_true_events(local(0, "x"))
    index.literal_true_events(local(0, "x", negated=True))
    assert index.counters["literal_cache.misses"] == 2
    assert index.counters["literal_cache.hits"] == 1


def test_literal_memo_rejects_a_process_out_of_range():
    comp = build(7)
    lit = local(comp.num_processes, "x")
    with pytest.raises(Exception) as expected:
        true_events(comp, lit)
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
        CausalityIndex.of(comp).literal_true_events(lit)


def test_reparsed_predicates_share_clause_memos():
    comp = random_computation(
        6,
        12,
        message_density=0.0,
        seed=3,
        variables=[BoolVar("x"), BoolVar("y")],
    )
    text = "(x@0 | y@1) & (x@2 | !x@3) & (y@4 | x@5)"
    for _ in range(50):
        result = detect(comp, parse_predicate(text, num_processes=6))
    assert result.algorithm == "cpdsc"
    index = CausalityIndex.of(comp)
    assert len(index._true_all) == 3
    assert len(index._true_on) == 6
    assert index.counters["clause_cache.hits"] > 0
    assert index.counters["clause_cache.misses"] == 9
    predicate = parse_predicate(text, num_processes=6)
    ref = weakref.ref(predicate)
    detect(comp, predicate)
    del predicate
    assert ref() is None


def test_a_poisoned_memo_fails_the_witness_check():
    # x is never true, so every memoized event is a false one; the witness
    # check against the original predicate raises, also under python -O.
    comp = random_computation(
        3, 5, seed=4, variables=[BoolVar("x", density=0.0)]
    )
    index = CausalityIndex.of(comp)
    for p in (0, 1):
        index._literal_true[(p, "x", False)] = tuple(
            e.event_id for e in comp.events_of(p)
        )
    with pytest.raises(AssertionError, match="does not satisfy"):
        detect(comp, parse_predicate("x@0 & x@1", num_processes=3))
