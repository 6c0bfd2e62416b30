"""Planted-bug engines: the fuzzer's own self-test.

A differential fuzzer that never fires is indistinguishable from one that
cannot fire.  This module keeps a deliberately broken engine — a copy of
the CPDHB selection scan with a classic off-by-one — so the test suite can
assert, on every run, that the fuzzer catches a real verdict divergence
within its smoke budget and that the shrinker reduces the counterexample
to a tiny instance (see ``tests/test_testkit_fuzz.py``).

The plant: :func:`buggy_detect_conjunctive` reproduces the elimination
scan of :mod:`repro.detection.garg_waldecker` but treats a chain as
exhausted one event early (``cursor == len(chain) - 1`` instead of
``len(chain)``), so eliminations can never settle on the *final* true
event of a chain.  The verdict is wrong exactly when every witness needs
some process's last true event — a subtle, input-dependent false negative
of the kind a real fast-path regression would produce.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.computation import Computation, least_consistent_cut
from repro.events import EventId
from repro.predicates import Modality
from repro.predicates.base import GlobalPredicate
from repro.predicates.conjunctive import conjunctive_view
from repro.predicates.errors import UnsupportedPredicateError
from repro.predicates.local import true_events
from repro.testkit.registry import EngineSpec

__all__ = ["buggy_detect_conjunctive", "planted_engine", "PLANTED_ENGINE_NAME"]

PLANTED_ENGINE_NAME = "cpdhb-off-by-one"


def _buggy_selection(
    computation: Computation, chains: List[List[EventId]]
) -> Optional[List[EventId]]:
    """The CPDHB elimination scan with the planted off-by-one bound."""
    m = len(chains)
    if m == 0:
        return []
    if any(not chain for chain in chains):
        return None
    cursor = [0] * m
    pending: deque[int] = deque(range(m))
    queued = [True] * m

    def advance(i: int) -> bool:
        cursor[i] += 1
        # BUG (planted): the correct bound is ``len(chains[i])`` — this
        # declares the chain exhausted with its final event still unused.
        return cursor[i] < len(chains[i]) - 1

    while pending:
        i = pending.popleft()
        queued[i] = False
        e = chains[i][cursor[i]]
        succ_e = computation.successor(e)
        restart = False
        for j in range(m):
            if j == i:
                continue
            f = chains[j][cursor[j]]
            if succ_e is not None and computation.leq(succ_e, f):
                if not advance(i):
                    return None
                if not queued[i]:
                    pending.append(i)
                    queued[i] = True
                restart = True
                break
            succ_f = computation.successor(f)
            if succ_f is not None and computation.leq(succ_f, e):
                if not advance(j):
                    return None
                if not queued[j]:
                    pending.append(j)
                    queued[j] = True
        if restart:
            continue
    return [chains[i][cursor[i]] for i in range(m)]


def buggy_detect_conjunctive(
    computation: Computation, predicate: GlobalPredicate
) -> bool:
    """``possibly`` of a conjunctive predicate via the buggy scan copy."""
    conj = conjunctive_view(predicate)
    if conj is None:
        raise UnsupportedPredicateError(
            "the planted engine handles conjunctive predicates only"
        )
    chains = [
        list(true_events(computation, conjunct)) for conjunct in conj.conjuncts
    ]
    selection = _buggy_selection(computation, chains)
    if selection is None:
        return False
    witness = least_consistent_cut(computation, selection)
    return witness is not None and predicate.evaluate(witness)


def planted_engine() -> EngineSpec:
    """The buggy engine, packaged for ``FuzzConfig.extra_engines``."""
    return EngineSpec(
        name=PLANTED_ENGINE_NAME,
        modality=Modality.POSSIBLY,
        run=buggy_detect_conjunctive,
    )
