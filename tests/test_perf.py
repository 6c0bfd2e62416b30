"""Tests for the ``repro.perf`` detection-core layer.

The index must be *transparent*: every fast path answers
exactly what the corresponding ``Computation``/``Cut`` method answers,
on arbitrary seeded traces.  The parallel driver must preserve the
serial sweep's verdict, witness, and scan counts.
"""

from __future__ import annotations

import gc
import os
import pickle
import threading
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.computation import (
    ComputationBuilder,
    count_consistent_cuts,
    iter_consistent_cuts,
)
from repro.detection import (
    detect,
    detect_cnf_by_literal_choice,
    detect_conjunctive,
    detect_singular,
    possibly_enumerate,
)
from repro.detection.work_optimal import POOL_MIN_COMBINATIONS, combination_at
from repro.obs import Capture
from repro.obs.progress import progress_context
from repro.perf.causality import CausalityIndex
from repro.perf.clockmatrix import numpy_available
from repro.perf.parallel import run_combination_search
from repro.predicates import (
    CNFPredicate,
    Clause,
    ConstantPredicate,
    Literal,
    clause,
    conjunctive,
    local,
    singular_cnf,
)
from repro.trace import (
    BoolVar,
    dump_computation,
    load_computation,
    random_computation,
)

random_comp = st.builds(
    random_computation,
    num_processes=st.integers(2, 5),
    events_per_process=st.integers(0, 5),
    message_density=st.floats(0.0, 0.8),
    seed=st.integers(0, 100_000),
    variables=st.just([BoolVar("x", density=0.4)]),
)


def _all_event_ids(comp):
    return [
        ev.event_id
        for p in range(comp.num_processes)
        for ev in comp.events_of(p)
    ]


class TestCausalityIndex:
    def test_cached_per_computation(self, figure2):
        assert CausalityIndex.of(figure2) is CausalityIndex.of(figure2)

    @settings(max_examples=30, deadline=None)
    @given(random_comp)
    def test_matches_computation_queries(self, comp):
        index = CausalityIndex.of(comp)
        # The index shares the computation's clock table; it keeps no copy.
        assert index._clk is comp._clk
        ids = _all_event_ids(comp)
        for e in ids:
            assert index._clk[e[0]][e[1]] == comp.clock(e).components
            for f in ids:
                assert index.happened_before(e, f) == comp.happened_before(
                    e, f
                )
                assert index.leq(e, f) == comp.leq(e, f)

    @settings(max_examples=30, deadline=None)
    @given(random_comp)
    def test_successor_frontiers_match_cut_successors(self, comp):
        index = CausalityIndex.of(comp)
        for cut in iter_consistent_cuts(comp):
            expected = sorted(c.frontier for c in cut.successors())
            assert sorted(index.successor_frontiers(cut.frontier)) == expected

    def test_clause_caches_hit_on_reuse(self, figure2):
        index = CausalityIndex.of(figure2)
        cl = clause(local(0, "x"), local(1, "x"))
        first = index.clause_true_events(cl)
        misses = index.counters["clause_cache.misses"]
        assert index.clause_true_events(cl) is first
        assert index.counters["clause_cache.misses"] == misses
        assert index.counters["clause_cache.hits"] >= 1
        cover = index.chain_cover(cl)
        assert index.chain_cover(cl) is cover
        assert index.counters["chain_cover.hits"] >= 1

    def test_orderedness_memoized(self, figure2):
        index = CausalityIndex.of(figure2)
        groups = ((0, 1), (2, 3))
        first = index.is_receive_ordered(groups)
        misses = index.counters["orderedness.misses"]
        assert index.is_receive_ordered(groups) == first
        assert index.counters["orderedness.misses"] == misses
        assert index.counters["orderedness.hits"] >= 1

    def test_perf_counters_flushed_when_enabled(self, figure2):
        pred = singular_cnf(
            clause(local(0, "x"), local(1, "x")),
            clause(local(2, "x"), local(3, "x")),
        )
        with Capture() as cap:
            detect_singular(figure2, pred, strategy="chain-choice")
            detect_singular(figure2, pred, strategy="chain-choice")
        counters = cap.registry.snapshot()["counters"]
        assert counters.get("perf.clause_cache.misses", 0) >= 1
        # The second query is served straight from the chain-cover cache.
        assert counters.get("perf.chain_cover.misses", 0) >= 1
        assert counters.get("perf.chain_cover.hits", 0) >= 1


    def test_dropped_computation_frees_its_index(self, tmp_path):
        """Reference counting alone frees a loaded, indexed computation."""
        path = tmp_path / "trace.json"
        dump_computation(
            random_computation(
                4, 6, 0.4, seed=3, variables=[BoolVar("x", density=0.5)]
            ),
            str(path),
        )
        pred = conjunctive(*(local(p, "x") for p in range(4)))
        gc.collect()
        gc.disable()
        try:
            comp = load_computation(str(path))
            index = CausalityIndex.of(comp)
            if numpy_available():
                index.matrix
            detect_conjunctive(comp, pred)
            refs = [weakref.ref(comp), weakref.ref(index)]
            del comp, index
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_indexed_computation_pickles(self, figure2):
        if numpy_available():
            CausalityIndex.of(figure2).matrix
        copy = pickle.loads(pickle.dumps(figure2))
        assert CausalityIndex.of(copy) is not CausalityIndex.of(figure2)
        assert CausalityIndex.of(copy)._clk == CausalityIndex.of(figure2)._clk


class TestLatticeWalkRetention:
    def test_walked_computation_freed_without_gc(self):
        """A full lattice walk leaves no cut behind that keeps the
        computation alive: reference counting alone frees it."""
        comp = random_computation(
            3, 4, 0.3, seed=5, variables=[BoolVar("x", density=0.5)]
        )
        gc.collect()
        gc.disable()
        try:
            result = possibly_enumerate(comp, ConstantPredicate(False))
            assert not result.holds
            assert result.stats["cuts_explored"] == count_consistent_cuts(
                comp
            )
            ref = weakref.ref(comp)
            del comp
            assert ref() is None
        finally:
            gc.enable()


def _literal_sweep(clauses, flipped):
    """A ``2**clauses``-rank literal-choice sweep with one success.

    Clause ``p`` is ``x@p | y@p`` on process ``p`` (``y@p | x@p`` for the
    first ``flipped`` clauses), and ``y`` never holds, so the only
    succeeding rank picks every ``x``: ``(2**flipped - 1) *
    2**(clauses - flipped)``.
    """
    builder = ComputationBuilder(clauses)
    for p in range(clauses):
        builder.init_values(p, x=False, y=False)
        builder.internal(p, x=True)
    literals = [(Literal(p, "x"), Literal(p, "y")) for p in range(clauses)]
    pred = CNFPredicate(
        [
            Clause(list(reversed(pair)) if p < flipped else list(pair))
            for p, pair in enumerate(literals)
        ]
    )
    return builder.build(), pred


def _cores(monkeypatch, count):
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count))
    )


def _pool_snapshot(comp, pred):
    with Capture() as cap:
        result = detect_cnf_by_literal_choice(comp, pred)
    return result, cap.registry.snapshot()


class TestPoolGate:
    """The combination driver chooses its own worker count: a pool only
    after a failed first chunk of a sweep of at least
    ``POOL_MIN_COMBINATIONS`` ranks, with two usable cores and no other
    live thread — and never a different verdict or counter."""

    def _serial(self, monkeypatch, comp, pred):
        _cores(monkeypatch, 1)
        result = detect_cnf_by_literal_choice(comp, pred)
        assert result.stats["workers"] == 1
        return result

    def test_small_sweep_stays_serial(self, monkeypatch):
        comp, pred = _literal_sweep(15, 3)
        assert 2**15 < POOL_MIN_COMBINATIONS
        _cores(monkeypatch, 2)
        result, snap = _pool_snapshot(comp, pred)
        assert result.holds
        assert result.stats["workers"] == 1
        assert "perf.pool.workers" not in snap["gauges"]

    def test_large_sweep_forks_after_failed_first_chunk(self, monkeypatch):
        comp, pred = _literal_sweep(16, 3)
        assert 2**16 == POOL_MIN_COMBINATIONS
        serial = self._serial(monkeypatch, comp, pred)
        assert threading.active_count() == 1, threading.enumerate()
        _cores(monkeypatch, 2)
        events = []
        with progress_context(sink=events.append, interval_s=0.0):
            pooled, snap = _pool_snapshot(comp, pred)
        done = [e.done for e in events if e.name == "detect.combinations"]
        assert done == sorted(done)
        assert done[-1] == pooled.stats["invocations"]
        assert pooled.stats["workers"] == 2
        assert snap["gauges"]["perf.pool.workers"] == 2
        assert pooled.holds and serial.holds
        assert pooled.witness.frontier == serial.witness.frontier
        for key in ("combinations", "invocations", "advances"):
            assert pooled.stats[key] == serial.stats[key], key

    def test_live_thread_keeps_the_sweep_serial(self, monkeypatch):
        comp, pred = _literal_sweep(16, 3)
        serial = self._serial(monkeypatch, comp, pred)
        _cores(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            result, snap = _pool_snapshot(comp, pred)
        finally:
            release.set()
            thread.join()
        assert result.stats["workers"] == 1
        assert snap["counters"]["perf.pool.fallbacks"] == 1
        assert "perf.pool.workers" not in snap["gauges"]
        assert result.stats == serial.stats
        assert result.witness.frontier == serial.witness.frontier

    def test_first_chunk_success_creates_no_pool(self, monkeypatch):
        comp, pred = _literal_sweep(16, 0)
        _cores(monkeypatch, 2)
        result, snap = _pool_snapshot(comp, pred)
        assert result.holds
        assert result.stats["workers"] == 1
        assert result.stats["invocations"] <= 4096
        assert "perf.pool.workers" not in snap["gauges"]

    def test_detect_routes_big_non_singular_sweeps_through_the_gate(
        self, monkeypatch
    ):
        # 30 clauses of three literals on one process: 3**30 literal
        # choices, the first of which holds.
        builder = ComputationBuilder(1)
        names = [f"v{j}" for j in range(90)]
        builder.init_values(0, **{name: False for name in names})
        builder.internal(0, **{name: True for name in names})
        pred = CNFPredicate(
            [
                Clause([Literal(0, name) for name in names[j : j + 3]])
                for j in range(0, 90, 3)
            ]
        )
        _cores(monkeypatch, 2)
        with Capture() as cap:
            result = detect(builder.build(), pred)
        assert result.holds
        assert result.algorithm == "stoller-schneider"
        assert result.stats["combinations"] == 3**30
        assert result.stats["workers"] == 1
        assert "perf.pool.workers" not in cap.registry.snapshot()["gauges"]


class TestParallelHelpers:
    def test_combination_at_matches_product_order(self):
        import itertools

        per_group = [
            [["a"], ["b"]],
            [["c"], ["d"], ["e"]],
            [["f"], ["g"]],
        ]
        expected = list(itertools.product(*per_group))
        for rank, combo in enumerate(expected):
            assert tuple(combination_at(per_group, rank)) == combo

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_run_combination_search_matches_serial(self, seed, dense):
        comp = random_computation(
            4,
            4,
            0.5 if dense else 0.1,
            seed=seed,
            variables=[BoolVar("x", density=0.4)],
        )
        pred = singular_cnf(
            clause(local(0, "x"), local(1, "x")),
            clause(local(2, "x"), local(3, "x")),
        )
        serial = detect_singular(comp, pred, strategy="chain-choice")
        index = CausalityIndex.of(comp)
        per_group = [
            [list(chain) for chain in index.chain_cover(cl)]
            for cl in pred.clauses
        ]
        outcome = run_combination_search(comp, per_group, workers=2)
        if outcome is None:  # no pool in this sandbox: fallback covered
            return
        assert (outcome.selection is not None) == serial.holds
        assert outcome.invocations == serial.stats["invocations"]
        assert outcome.advances == serial.stats["advances"]

    def test_pool_stops_handing_out_chunks_after_a_success(self, figure2):
        # 3^40 ranks, first success at rank 242 (the last five groups must
        # take their third chain): the pool must return once it is found,
        # not feed every remaining chunk to its workers.
        per_group = [[[(0, 1)], [], []]] * 35 + [[[], [], [(0, 1)]]] * 5
        outcome = run_combination_search(figure2, per_group, workers=2)
        if outcome is None:  # no pool in this sandbox: fallback covered
            return
        assert outcome.rank == 242
        assert outcome.selection == [(0, 1)] * 40

    def test_zero_total_short_circuits(self, figure2):
        outcome = run_combination_search(figure2, [[], [[(0, 1)]]], workers=2)
        assert outcome is not None
        assert outcome.selection is None
        assert outcome.invocations == 0
        assert outcome.chunks == 0
