"""Tests for Hopcroft–Karp matching and minimum chain covers."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.computation import (
    HopcroftKarp,
    UnknownEventError,
    greedy_chain_cover,
    minimum_chain_cover,
)
from repro.computation import chains as chains_module
from repro.computation.chains import successor_lists
from repro.trace import random_computation


def closure_successor_lists(comp, events):
    """The Fulkerson graph from n^2 validated happened-before calls."""
    return [
        [j for j, f in enumerate(events) if i != j and comp.happened_before(e, f)]
        for i, e in enumerate(events)
    ]


class TestHopcroftKarp:
    def test_empty_graph(self):
        matcher = HopcroftKarp(3, 3, [[], [], []])
        assert matcher.solve() == 0

    def test_perfect_matching(self):
        matcher = HopcroftKarp(2, 2, [[0, 1], [0]])
        assert matcher.solve() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            HopcroftKarp(2, 2, [[0]])  # wrong adjacency length
        with pytest.raises(ValueError):
            HopcroftKarp(1, 1, [[3]])  # edge out of range

    def test_matching_is_consistent(self):
        matcher = HopcroftKarp(3, 3, [[0, 1], [1, 2], [0, 2]])
        size = matcher.solve()
        assert size == 3
        for u, v in enumerate(matcher.match_left):
            if v != -1:
                assert matcher.match_right[v] == u

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 7),
        st.integers(1, 7),
        st.integers(0, 2**30),
    )
    def test_against_networkx(self, n_left, n_right, seed):
        rng = random.Random(seed)
        adjacency = [
            sorted(
                v for v in range(n_right) if rng.random() < 0.4
            )
            for _ in range(n_left)
        ]
        size = HopcroftKarp(n_left, n_right, adjacency).solve()
        graph = nx.Graph()
        graph.add_nodes_from(f"L{u}" for u in range(n_left))
        graph.add_nodes_from(f"R{v}" for v in range(n_right))
        for u, nbrs in enumerate(adjacency):
            for v in nbrs:
                graph.add_edge(f"L{u}", f"R{v}")
        reference = len(
            nx.bipartite.maximum_matching(
                graph, top_nodes=[f"L{u}" for u in range(n_left)]
            )
        ) // 2
        assert size == reference


def largest_antichain(comp, ids):
    """Brute-force width of the event set (Dilworth oracle)."""
    best = 0
    for size in range(len(ids), 0, -1):
        for combo in itertools.combinations(ids, size):
            if all(
                comp.concurrent(a, b)
                for a, b in itertools.combinations(combo, 2)
            ):
                return size
    return best


class TestChainCover:
    def test_empty(self, figure2):
        assert minimum_chain_cover(figure2, []) == []

    def test_single_chain_for_one_process(self, two_chain):
        ids = [(0, 1), (0, 2), (0, 3)]
        chains = minimum_chain_cover(two_chain, ids)
        assert len(chains) == 1
        assert chains[0] == ids

    def test_antichain_needs_one_chain_each(self, figure2):
        ids = [(0, 1), (3, 1)]
        chains = minimum_chain_cover(figure2, ids)
        assert len(chains) == 2

    def test_message_merges_chains(self, figure2):
        # f -> g, so both fit one chain.
        chains = minimum_chain_cover(figure2, [(1, 1), (2, 1)])
        assert len(chains) == 1
        assert chains[0] == [(1, 1), (2, 1)]

    def test_chains_are_causally_sorted_partitions(self):
        for seed in range(6):
            comp = random_computation(4, 4, 0.5, seed=seed)
            ids = [ev.event_id for ev in comp.all_events()]
            chains = minimum_chain_cover(comp, ids)
            covered = [eid for chain in chains for eid in chain]
            assert sorted(covered) == sorted(ids)  # exact partition
            for chain in chains:
                for a, b in zip(chain, chain[1:]):
                    assert comp.happened_before(a, b)

    def test_minimality_equals_width(self):
        for seed in range(6):
            comp = random_computation(3, 3, 0.5, seed=seed)
            ids = [ev.event_id for ev in comp.all_events()]
            chains = minimum_chain_cover(comp, ids)
            assert len(chains) == largest_antichain(comp, ids)

    def test_duplicates_ignored(self, figure2):
        chains = minimum_chain_cover(figure2, [(0, 1), (0, 1)])
        assert chains == [[(0, 1)]]


class TestSuccessorLists:
    """The clock-row graph equals the transitive-closure graph."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(0, 6),
        st.floats(0.0, 0.8),
        st.integers(0, 10_000),
    )
    def test_matches_closure_graph(self, n, events, density, seed):
        comp = random_computation(n, events, density, seed=seed)
        everything = [
            (p, i) for p in range(n) for i in range(len(comp.events_of(p)))
        ]
        rng = random.Random(seed)
        rng.shuffle(everything)
        subset = everything[: rng.randint(0, len(everything))]
        assert successor_lists(comp, subset) == closure_successor_lists(
            comp, subset
        )

    def test_unknown_event_raises(self, figure2):
        with pytest.raises(UnknownEventError):
            successor_lists(figure2, [(0, 1), (9, 0)])

    def test_broken_matching_raises_under_optimization(
        self, figure2, monkeypatch
    ):
        """The size check is an explicit raise, so ``python -O`` keeps it."""

        class CyclicMatcher:
            def __init__(self, n_left, n_right, adjacency):
                # Every event is someone's successor: no chain has a head.
                self.match_left = [(u + 1) % n_left for u in range(n_left)]

            def solve(self):
                return len(self.match_left)

        monkeypatch.setattr(chains_module, "HopcroftKarp", CyclicMatcher)
        with pytest.raises(AssertionError, match="chain cover holds 0 of 2"):
            minimum_chain_cover(figure2, [(0, 1), (3, 1)])


class TestGreedyCover:
    def test_one_chain_per_process(self, figure2):
        ids = [(0, 1), (1, 1), (2, 1), (3, 1)]
        chains = greedy_chain_cover(figure2, ids)
        assert len(chains) == 4

    def test_sorted_within_process(self, two_chain):
        chains = greedy_chain_cover(two_chain, [(0, 3), (0, 1)])
        assert chains == [[(0, 1), (0, 3)]]

    def test_never_smaller_than_minimum(self):
        for seed in range(5):
            comp = random_computation(4, 3, 0.6, seed=seed)
            ids = [ev.event_id for ev in comp.all_events()]
            assert len(greedy_chain_cover(comp, ids)) >= len(
                minimum_chain_cover(comp, ids)
            )
