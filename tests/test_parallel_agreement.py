"""Property test: the combination search never changes verdicts.

These tests once compared a worker-pool sweep against the serial rank
walk; the pool is gone and their names are kept so the test ids stay
stable.  They now referee the depth-first combination search
(:func:`~repro.detection.singular_cnf.search_combinations`) on small
singular 2-CNF instances: its winning rank and selection must equal a
product-order walk of every rank
(:func:`~repro.testkit.oracles.rank_walk`), the engine must report that
selection's witness, and the verdict must equal the brute-force oracle.
"""

from __future__ import annotations

import pytest

from repro.detection import detect_singular, selection_witness
from repro.detection.singular_cnf import (
    chain_choice_table,
    process_choice_table,
    search_combinations,
)
from repro.predicates import CNFPredicate, Clause, Literal
from repro.testkit.oracles import brute_possibly, rank_walk
from repro.trace import BoolVar, grouped_computation
from workloads import chain_structured_group

PRED = CNFPredicate(
    [
        Clause([Literal(0, "x"), Literal(1, "x")]),
        Clause([Literal(2, "x"), Literal(3, "x")]),
    ]
)


def _assert_matches_walk(comp, pred, table, strategy):
    found = search_combinations(comp, table)
    assert (found.rank, found.selection) == rank_walk(comp, table)
    result = detect_singular(comp, pred, strategy)
    assert result.holds == (found.selection is not None)
    assert result.stats["invocations"] == found.nodes
    if result.holds:
        assert (
            result.witness.frontier
            == selection_witness(comp, pred, found.selection).frontier
        )
    return found


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("ordering", [None, "receive"])
def test_parallel2_and_indexed_serial_match_oracle(seed, ordering):
    comp = grouped_computation(
        2,
        2,
        3,
        message_density=0.5,
        seed=seed,
        variables=[BoolVar("x", 0.4)],
        ordering=ordering,
    )
    chains = _assert_matches_walk(
        comp, PRED, chain_choice_table(comp, PRED), "chain-choice"
    )
    processes = _assert_matches_walk(
        comp, PRED, process_choice_table(comp, PRED), "process-choice"
    )
    oracle = brute_possibly(comp, PRED.evaluate) is not None
    assert (chains.selection is not None) == oracle, (
        f"seed={seed} ordering={ordering}: "
        f"search={chains.selection} oracle={oracle}"
    )
    assert (processes.selection is not None) == oracle


@pytest.mark.parametrize("satisfiable", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parallel4_matches_serial_witness(seed, satisfiable):
    """Three groups of three chains each (27 combinations): winning rank,
    selection and witness equal the walk's."""
    comp, pred = chain_structured_group(
        3, 4, chains_per_group=3, events_per_process=6,
        seed=seed, satisfiable=satisfiable,
    )
    found = _assert_matches_walk(
        comp, pred, chain_choice_table(comp, pred), "chain-choice"
    )
    assert (found.selection is not None) == satisfiable


class TestParallelMetricsParity:
    """The search's stats are its own counts, and its span says so."""

    def _instance(self):
        # Seed chosen so every group has true events (the search really
        # runs) but no consistent combination exists (a full miss).
        return grouped_computation(
            2,
            2,
            4,
            message_density=0.7,
            seed=83,
            variables=[BoolVar("x", 0.15)],
        )

    def test_parallel2_matches_serial_scan_counters(self):
        from repro import obs

        comp = self._instance()
        chains = chain_choice_table(comp, PRED)
        with obs.Capture() as cap:
            result = detect_singular(comp, PRED, "chain-choice")
        found = search_combinations(comp, chains)
        assert result.holds is False, "parity needs a full miss"
        assert found.selection is None
        assert result.stats["invocations"] == found.nodes
        assert result.stats["advances"] == found.advances
        assert result.stats["pair_checks"] == found.pair_checks
        (root,) = cap.roots
        assert root.name == "engine.chain-choice"
        assert root.attributes["nodes"] == found.nodes
        assert root.attributes["holds"] is False
