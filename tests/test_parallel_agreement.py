"""Property test: the worker-pool combination sweep never changes verdicts.

The detection driver forks a pool only for sweeps of at least 65,536
ranks, so these tests call the pool driver,
:func:`~repro.perf.parallel.run_combination_search`, directly on small
singular 2-CNF instances.  At 2 and 4 workers its verdict, witness
selection, ``invocations`` and ``advances`` must equal a serial
:class:`~repro.detection.work_optimal.RankScanner` walk of the same
chunks, and the verdict must equal the brute-force oracle.
"""

from __future__ import annotations

import pytest

from repro.detection import detect_singular
from repro.detection.singular_cnf import chain_choice_table
from repro.perf.parallel import run_combination_search
from repro.predicates import CNFPredicate, Clause, Literal
from repro.testkit.oracles import brute_possibly
from repro.trace import BoolVar, grouped_computation
from workloads import chain_structured_group, serial_rank_walk

PRED = CNFPredicate(
    [
        Clause([Literal(0, "x"), Literal(1, "x")]),
        Clause([Literal(2, "x"), Literal(3, "x")]),
    ]
)


def _pooled(comp, chains, workers):
    outcome = run_combination_search(comp, chains, workers)
    assert outcome is not None, "no worker pool could be created"
    assert outcome.workers == workers
    return outcome


def _assert_matches_serial(outcome, serial):
    rank, selection, invocations, advances = serial
    assert outcome.rank == rank
    assert outcome.selection == (
        None if selection is None else [tuple(e) for e in selection]
    )
    assert outcome.invocations == invocations
    assert outcome.advances == advances


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
    chains = chain_choice_table(comp, PRED)
    serial = serial_rank_walk(comp, chains)
    outcome = _pooled(comp, chains, 2)
    _assert_matches_serial(outcome, serial)
    oracle = brute_possibly(comp, PRED.evaluate) is not None
    assert (outcome.selection is not None) == oracle, (
        f"seed={seed} ordering={ordering}: "
        f"pool2={outcome.selection} oracle={oracle}"
    )


@pytest.mark.parametrize("satisfiable", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parallel4_matches_serial_witness(seed, satisfiable):
    """At 4 workers verdict, witness and scan counts equal the serial
    walk's: chunks are consumed in rank order."""
    comp, pred = chain_structured_group(
        3, 4, chains_per_group=3, events_per_process=6,
        seed=seed, satisfiable=satisfiable,
    )
    chains = chain_choice_table(comp, pred)
    serial = serial_rank_walk(comp, chains)
    outcome = _pooled(comp, chains, 4)
    _assert_matches_serial(outcome, serial)
    assert (outcome.selection is not None) == satisfiable


class TestParallelMetricsParity:
    """The pool must report the same work the serial sweep does.

    Worker processes snapshot their registries per chunk and the driver
    merges them, so counters and the `scan.cpdhb` span histogram agree
    with a serial scan of the same instance (chunks are consumed in
    rank order, so on a miss both sides scan every combination).
    """

    def _instance(self):
        # Seed chosen so every group has true events (the sweep really
        # scans) but no consistent combination exists (a full miss).
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
            serial = detect_singular(comp, PRED, "chain-choice")
        serial_snap = cap.registry.snapshot()
        with obs.Capture() as cap2:
            outcome = _pooled(comp, chains, 2)
        par_snap = cap2.registry.snapshot()
        assert serial.holds is False, "parity needs a full (miss) sweep"
        assert outcome.selection is None
        assert serial.stats["invocations"] == outcome.invocations
        assert serial.stats["advances"] == outcome.advances
        serial_scans = serial_snap["histograms"]["span.scan.cpdhb.ms"]["count"]
        par_scans = par_snap["histograms"]["span.scan.cpdhb.ms"]["count"]
        assert serial_scans == par_scans == serial.stats["invocations"]
        assert par_snap["gauges"]["perf.pool.workers"] == 2
