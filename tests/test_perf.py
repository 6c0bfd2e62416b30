"""Tests for the ``repro.perf`` detection-core layer.

The index must be *transparent*: every fast path answers
exactly what the corresponding ``Computation``/``Cut`` method answers,
on arbitrary seeded traces.
"""

from __future__ import annotations

import gc
import pickle
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.computation import (
    ComputationBuilder,
    count_consistent_cuts,
    iter_consistent_cuts,
)
from repro.detection import (
    detect_cnf_by_literal_choice,
    detect_conjunctive,
    detect_singular,
    possibly_enumerate,
)
from repro.detection.singular_cnf import (
    literal_choice_table,
    search_combinations,
)
from repro.obs import Capture
from repro.obs.progress import progress_context
from repro.perf.causality import CausalityIndex
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
from repro.testkit.oracles import combination_at
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
            detect_conjunctive(comp, pred)
            refs = [weakref.ref(comp), weakref.ref(index)]
            del comp, index
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_indexed_computation_pickles(self, figure2):
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


class TestCombinationSearch:
    """The Section 3.3 search: product-order ranks, progress, edge cases."""

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

    def test_success_rank_is_the_first_in_product_order(self):
        comp, pred = _literal_sweep(16, 3)
        result = detect_cnf_by_literal_choice(comp, pred)
        assert result.holds
        assert result.stats["combinations"] == 2**16
        found = search_combinations(comp, literal_choice_table(comp, pred))
        assert found.rank == (2**3 - 1) * 2**13
        assert found.nodes == result.stats["invocations"]

    def test_progress_settles_every_rank_of_a_failed_search(self):
        comp, pred = _literal_sweep(16, 3)
        # x@0 and its negation in one clause each: no choice holds.
        pred = CNFPredicate(
            [*pred.clauses, Clause([Literal(0, "x", negated=True)])]
        )
        events = []
        with progress_context(sink=events.append, interval_s=0.0):
            result = detect_cnf_by_literal_choice(comp, pred)
        assert not result.holds
        done = [e.done for e in events if e.name == "detect.combinations"]
        assert done == sorted(done)
        assert done[-1] == result.stats["combinations"] == 2**16

    def test_zero_total_short_circuits(self, figure2):
        outcome = search_combinations(figure2, [[], [[(0, 1)]]])
        assert outcome.selection is None and outcome.rank is None
        assert outcome.nodes == outcome.pair_checks == 0
