"""Property test: the parallel combination sweep never changes verdicts.

For seeded sweeps of singular 2-CNF instances, ``detect_singular`` with
``parallel=2`` must agree with the serial engine run against a warmed
:class:`~repro.perf.causality.CausalityIndex` (the memoized fast path),
and both must agree with the brute-force oracle.
"""

from __future__ import annotations

import pytest

from repro.perf import CausalityIndex
from repro.detection import detect_singular
from repro.predicates import CNFPredicate, Clause, Literal
from repro.testkit.oracles import brute_possibly
from repro.trace import BoolVar, grouped_computation
from workloads import chain_structured_group

PRED = CNFPredicate(
    [
        Clause([Literal(0, "x"), Literal(1, "x")]),
        Clause([Literal(2, "x"), Literal(3, "x")]),
    ]
)


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
    CausalityIndex.of(comp)  # warm the memoized index for the serial run
    serial = detect_singular(comp, PRED, "chain-choice").holds
    fanned = detect_singular(comp, PRED, "chain-choice", parallel=2).holds
    oracle = brute_possibly(comp, PRED.evaluate) is not None
    assert serial == fanned == oracle, (
        f"seed={seed} ordering={ordering}: "
        f"serial={serial} parallel2={fanned} oracle={oracle}"
    )


@pytest.mark.parametrize("satisfiable", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parallel4_matches_serial_witness(seed, satisfiable):
    """At 4 workers verdict, witness and scan counts equal the serial
    sweep's: chunks are consumed in rank order."""
    comp, pred = chain_structured_group(
        3, 4, chains_per_group=3, events_per_process=6,
        seed=seed, satisfiable=satisfiable,
    )
    serial = detect_singular(comp, pred, "chain-choice")
    parallel = detect_singular(comp, pred, "chain-choice", parallel=4)
    assert parallel.holds == serial.holds == satisfiable
    assert parallel.stats["invocations"] == serial.stats["invocations"]
    assert parallel.stats["advances"] == serial.stats["advances"]
    if satisfiable:
        assert parallel.witness.frontier == serial.witness.frontier


class TestParallelMetricsParity:
    """The parallel sweep must report the same work the serial sweep does.

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
        CausalityIndex.of(comp)
        with obs.Capture() as cap:
            serial = detect_singular(comp, PRED, "chain-choice")
        serial_snap = cap.registry.snapshot()
        with obs.Capture() as cap2:
            fanned = detect_singular(comp, PRED, "chain-choice", parallel=2)
        par_snap = cap2.registry.snapshot()
        assert serial.holds is False, "parity needs a full (miss) sweep"
        assert fanned.holds is False
        assert serial.stats["invocations"] == fanned.stats["invocations"]
        assert serial.stats["advances"] == fanned.stats["advances"]
        serial_scans = serial_snap["histograms"]["span.scan.cpdhb.ms"]["count"]
        par_scans = par_snap["histograms"]["span.scan.cpdhb.ms"]["count"]
        assert serial_scans == par_scans == serial.stats["invocations"]
