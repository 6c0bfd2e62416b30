"""Property tests: the clock table's readers agree with per-pair
vector-clock comparisons and with the reference cut operations.

The index's pairwise kernels (``leq`` / ``happened_before``, read off the
shared clock table) are checked against ``VectorClock`` order; its
receive-delta ``successor_frontiers`` against ``Cut.successors()``, order
included, on every consistent frontier; ``closure_at_least`` against a
brute-force least cut.  Inputs are arbitrary generated computations
*and* simulator traces with crash/restart epochs.  With numpy installed,
the index's dense ``matrix`` copy of the table is checked row by row.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.computation import Cut, initial_cut, iter_consistent_cuts
from repro.detection import detect
from repro.perf.causality import CausalityIndex
from repro.predicates import Modality, conjunctive, disjunction, local
from repro.predicates.errors import UnsupportedPredicateError
from repro.simulation import CrashSpec, FaultPlan
from repro.simulation.protocols import build_token_ring
from repro.trace.generator import BoolVar, random_computation


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


def assert_pairwise_parity(comp):
    index = CausalityIndex.of(comp)
    events = all_events(comp)
    for a in events:
        for b in events:
            # VectorClock order is the causal order for distinct events;
            # the table kernels must also agree with the validated queries.
            assert index.leq(a, b) == comp.leq(a, b)
            if a != b:
                assert index.leq(a, b) == (comp.clock(a) <= comp.clock(b))
            assert index.happened_before(a, b) == comp.happened_before(a, b)


def assert_frontier_parity(comp):
    index = CausalityIndex.of(comp)
    start = initial_cut(comp).frontier
    seen = {start}
    wave = [start]
    while wave:
        per_item = [index.successor_frontiers(f) for f in wave]
        assert per_item == [
            [c.frontier for c in Cut(comp, f).successors()] for f in wave
        ]
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
    def test_successor_frontiers_match_cut_successors(self, comp):
        assert_frontier_parity(comp)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 500), st.booleans())
    def test_parity_survives_crash_restart_epochs(self, seed, restart):
        comp = crash_ring(seed, restart)
        assert_pairwise_parity(comp)
        assert_frontier_parity(comp)

    @settings(max_examples=25, deadline=None)
    @given(computations(), st.data())
    def test_closure_at_least_matches_least_cut(self, comp, data):
        index = CausalityIndex.of(comp)
        n = comp.num_processes
        start = tuple(
            data.draw(st.integers(1, len(comp.events_of(p))), label="start")
            for p in range(n)
        )
        process = data.draw(st.integers(0, n - 1), label="process")
        minimum = data.draw(
            st.integers(1, len(comp.events_of(process))), label="minimum"
        )
        # Consistent cuts are closed under meet, so the least one above
        # the floor is the componentwise minimum of all of them.
        above = [
            cut.frontier
            for cut in iter_consistent_cuts(comp)
            if all(c >= s for c, s in zip(cut.frontier, start))
            and cut.frontier[process] >= minimum
        ]
        expected = tuple(min(column) for column in zip(*above))
        assert expected in above
        raised = list(start)
        raised[process] = max(raised[process], minimum)
        assert tuple(index.consistency_closure(raised)) == expected
        assert index.closure_at_least(start, process, minimum) == expected


@settings(max_examples=20, deadline=None)
@given(computations(), st.integers(0, 500), st.booleans())
def test_matrix_rows_equal_table_rows(comp, seed, restart):
    """Every row of the numpy copy, in process-major order, is its event's
    clock-table row; it is built once per index, and a built copy keeps
    the computation picklable and freed by reference counting alone."""
    np = pytest.importorskip("numpy", exc_type=ImportError)
    ring = crash_ring(seed, restart)
    for computation in (comp, ring):
        index = CausalityIndex.of(computation)
        matrix = index.matrix
        assert matrix is index.matrix
        assert matrix.dtype == np.int64
        events = all_events(computation)
        assert matrix.shape == (len(events), computation.num_processes)
        for row, (p, i) in zip(matrix.tolist(), events):
            assert tuple(row) == index._clk[p][i]
    copy = pickle.loads(pickle.dumps(ring))
    assert CausalityIndex.of(copy)._clk == index._clk
    gc.collect()
    gc.disable()
    try:
        refs = [weakref.ref(ring), weakref.ref(index)]
        del ring, index, computation
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


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
