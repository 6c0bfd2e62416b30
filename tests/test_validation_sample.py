"""The classifier's validation sample, pinned.

:func:`sample_cuts` draws its frontiers from the computation's shape
alone, once per computation.  The two lists below were recorded before
the sample was memoized on the :class:`CausalityIndex`; the sampler must
keep reproducing them exactly, and a second validation on the same
computation must draw nothing.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.classify import classify, validate
from repro.analysis.classify.validate import sample_cuts, validate_certificate
from repro.predicates.base import FunctionPredicate
from repro.trace import BoolVar, random_computation

#: (processes, non-initial events, seed, frontier count, sha256 of the
#: JSON list of frontiers, first three frontiers).
PINS = [
    (
        3, 6, 5, 343,
        "ef9f62a90f737af269b03a452cbae4daecfcf060389c167d3049cfd2f4e7dc26",
        [[1, 1, 1], [1, 1, 2], [1, 1, 3]],
    ),
    (
        12, 199, 31, 66,
        "a3029935d7f75fe180b453ff4b0be0ca5590330adcf89fe49befb15b612eab0e",
        [
            [1] * 12,
            [200] * 12,
            [85, 4, 37, 62, 200, 138, 162, 49, 84, 47, 121, 158],
        ],
    ),
]


def build(processes: int, events: int, seed: int):
    return random_computation(
        processes,
        events,
        message_density=0.3,
        seed=seed,
        variables=[BoolVar("x", density=0.03)],
    )


@pytest.mark.parametrize("processes,events,seed,count,digest,head", PINS)
def test_sample_is_pinned(processes, events, seed, count, digest, head):
    comp = build(processes, events, seed)
    frontiers = [list(c.frontier) for c in sample_cuts(comp)]
    assert len(frontiers) == count
    assert frontiers[:3] == head
    assert hashlib.sha256(json.dumps(frontiers).encode()).hexdigest() == digest
    # The memoized second pass yields the same cuts.
    assert [list(c.frontier) for c in sample_cuts(comp)] == frontiers


@pytest.mark.parametrize("processes,events", [(3, 6), (12, 199)])
def test_equal_shapes_share_frontiers(processes, events):
    one, other = build(processes, events, 1), build(processes, events, 2)
    assert [c.frontier for c in sample_cuts(one)] == [
        c.frontier for c in sample_cuts(other)
    ]


def test_second_validation_draws_nothing(monkeypatch):
    comp = build(12, 199, 31)
    source = "lambda cut: cut.value(0, 'x') and cut.value(1, 'x')"
    fn = eval(compile(source, "<test>", "eval"))
    fn.__repro_source__ = source
    predicate = FunctionPredicate(fn, name=source)
    certificate = classify(predicate, num_processes=comp.num_processes)
    assert validate_certificate(comp, predicate, certificate)

    def no_rng(*args, **kwargs):
        raise AssertionError("the validation sample was drawn again")

    monkeypatch.setattr(validate.random, "Random", no_rng)
    assert validate_certificate(comp, predicate, certificate)
