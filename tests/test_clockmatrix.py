"""Property tests: the batched ClockMatrix kernels are bit-identical to
the per-pair causality primitives.

Every kernel — ``leq_rows``, ``happened_before_rows``,
``consistent_rows``, ``successor_frontiers_batch``, ``closure_at_least``
— is checked element-wise against ``VectorClock.__le__`` /
``CausalityIndex`` on arbitrary generated computations *and* on
simulator traces with crash/restart epochs, for both the numpy and the
pure-Python backend.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.computation import initial_cut
from repro.detection import detect
from repro.perf.causality import CausalityIndex
from repro.perf.clockmatrix import ClockMatrix, numpy_available
from repro.predicates import Modality, conjunctive, disjunction, local
from repro.predicates.errors import UnsupportedPredicateError
from repro.simulation import CrashSpec, FaultPlan
from repro.simulation.protocols import build_token_ring
from repro.trace.generator import BoolVar, random_computation

BACKENDS = [True, False] if numpy_available() else [False]


def computations():
    return st.builds(
        lambda n, events, density, seed: random_computation(
            n,
            events,
            density,
            seed=seed,
            variables=[BoolVar("x", density=0.5)],
        ),
        st.integers(2, 4),
        st.integers(2, 5),
        st.sampled_from([0.0, 0.2, 0.5, 0.8]),
        st.integers(0, 10_000),
    )


def crash_ring(seed: int, restart: bool):
    plan = FaultPlan(
        seed=seed,
        message_loss=0.1,
        crashes=(
            CrashSpec(
                process=seed % 3,
                at=2.0,
                restart_at=5.0 if restart else None,
            ),
        ),
    )
    return build_token_ring(3, hops=4, seed=seed, faults=plan)


def all_events(comp):
    return [
        (p, i)
        for p in range(comp.num_processes)
        for i in range(len(comp.events_of(p)))
    ]


def matrices(comp):
    """The computation's matrix in every backend under test."""
    index = CausalityIndex.of(comp)
    out = []
    for use_numpy in BACKENDS:
        out.append(
            ClockMatrix(index._clk, index._lengths, use_numpy=use_numpy)
        )
    return index, out


def assert_pairwise_parity(comp):
    index, mats = matrices(comp)
    events = all_events(comp)
    pairs = list(itertools.product(events, events))
    ev_a = [a for a, _ in pairs]
    ev_b = [b for _, b in pairs]
    for matrix in mats:
        rows_a = [matrix.row(e) for e in ev_a]
        rows_b = [matrix.row(e) for e in ev_b]
        leq = matrix.leq_rows(rows_a, rows_b)
        before = matrix.happened_before_rows(rows_a, rows_b)
        cons = matrix.consistent_rows(rows_a, rows_b)
        for k, (a, b) in enumerate(pairs):
            clock_leq = comp.clock(a) <= comp.clock(b)
            # VectorClock order is the causal order for distinct events;
            # the row kernel must also agree with the reflexive index.
            assert bool(leq[k]) == index.leq(a, b)
            if a != b:
                assert bool(leq[k]) == clock_leq
            assert bool(before[k]) == index.happened_before(a, b)
            assert bool(cons[k]) == index.pairwise_consistent(a, b)


def assert_frontier_parity(comp):
    index, mats = matrices(comp)
    start = initial_cut(comp).frontier
    seen = {start}
    wave = [start]
    while wave:
        per_item = [list(index.successor_frontiers(f)) for f in wave]
        for matrix in mats:
            assert matrix.successor_frontiers_batch(wave) == per_item
        wave = sorted(
            {nxt for succ in per_item for nxt in succ} - seen
        )
        seen.update(wave)


class TestKernelParity:
    @settings(max_examples=40, deadline=None)
    @given(computations())
    def test_pairwise_kernels_match_vector_clocks(self, comp):
        assert_pairwise_parity(comp)

    @settings(max_examples=20, deadline=None)
    @given(computations())
    def test_successor_batch_matches_per_frontier(self, comp):
        assert_frontier_parity(comp)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 500), st.booleans())
    def test_parity_survives_crash_restart_epochs(self, seed, restart):
        comp = crash_ring(seed, restart)
        assert_pairwise_parity(comp)
        assert_frontier_parity(comp)

    @settings(max_examples=25, deadline=None)
    @given(computations(), st.data())
    def test_closure_at_least_backends_agree(self, comp, data):
        index, mats = matrices(comp)
        start = initial_cut(comp).frontier
        process = data.draw(
            st.integers(0, comp.num_processes - 1), label="process"
        )
        minimum = data.draw(
            st.integers(1, len(comp.events_of(process))), label="minimum"
        )
        results = {
            matrix.closure_at_least(start, process, minimum)
            for matrix in mats
        }
        assert len(results) == 1
        closure = results.pop()
        assert closure[process] >= minimum
        assert all(c >= s for c, s in zip(closure, start))
        assert index.interner.get(closure).is_consistent()


class TestStrictEngineMode:
    """``engine="work-optimal"`` is the strict conjunctive mode."""

    def test_detect_engine_override(self):
        comp = random_computation(
            3, 4, 0.4, seed=6, variables=[BoolVar("x", density=0.6)]
        )
        pred = conjunctive(*(local(p, "x") for p in range(3)))
        auto = detect(comp, pred)
        forced = detect(comp, pred, engine="work-optimal")
        assert forced.algorithm == "cpdhb"
        assert forced.holds == auto.holds
        assert forced.witness.frontier == auto.witness.frontier
        with pytest.raises(ValueError):
            detect(comp, pred, engine="bogus")
        with pytest.raises(UnsupportedPredicateError):
            detect(
                comp,
                pred,
                modality=Modality.DEFINITELY,
                engine="work-optimal",
            )
        with pytest.raises(UnsupportedPredicateError):
            detect(
                comp,
                disjunction(local(0, "x"), local(1, "x")),
                engine="work-optimal",
            )
