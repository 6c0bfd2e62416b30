#!/usr/bin/env python3
"""Regenerate every experiment table for EXPERIMENTS.md.

The one experiment harness: each experiment id from DESIGN.md builds its
seeded workloads, times the engine calls behind its claim, and prints one
paper-style table — the *shape* of each series is the reproduced result.
Usage::

    python benchmarks/report.py                    # all experiments
    python benchmarks/report.py F1-conj F3         # a subset
    python benchmarks/report.py --json BENCH.json  # + metrics snapshots
    python benchmarks/report.py --baseline benchmarks/BENCH_baseline.json

Every experiment runs one untimed warm-up pass (under :mod:`repro.obs`
with ``--json``, which records its metrics snapshot), then ``PASSES``
uninstrumented timed passes, iteration-major, each iteration in an order
shuffled with the constant seed ``ORDER_SEED``.  A pass's time is the sum
of its ``timed`` points only; workload generation and printing are not
timed.  Each table prints once, every numeric cell the median of its
per-pass values.  ``--json`` records each experiment's median pass time
and interquartile range, with a ``machine`` record of where they were
measured; ``--baseline`` compares medians against such a snapshot and
exits 1 when any experiment above ``NOISE_FLOOR_MS`` is more than
``MAX_SLOWDOWN`` times slower — the CI gate (docs/CLI.md) — warning when
the snapshot's machine record differs from this machine's.  Each run
appends a ``command: "bench"`` record with the medians to the run ledger
unless ``--ledger off`` or ``REPRO_RUNS=off`` (docs/RUNS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

from bench_service_load import run_load
from workloads import (
    arbitrary_walk_workload,
    chain_structured_group,
    conjunctive_workload,
    exponential_subset_sum,
    general_cnf_workload,
    last_group_conflict,
    random_cnf_workload,
    singular_workload,
    unit_walk_workload,
)

from repro import obs
from repro.computation import count_consistent_cuts
from repro.detection import (
    definitely_sum,
    detect_by_chain_choice,
    detect_by_process_choice,
    detect_cnf_by_literal_choice,
    detect_conjunctive,
    detect_special_case,
    possibly_enumerate,
    possibly_sum,
    possibly_sum_eq_exact,
    possibly_symmetric,
)
from repro.monitor import OnlineConjunctiveMonitor
from repro.predicates import (
    absence_of_simple_majority,
    absence_of_two_thirds_majority,
    conjunctive,
    exactly_k_tokens,
    exclusive_or,
    local,
    not_all_equal,
    sum_predicate,
)
from repro.reductions import (
    dpll_solve,
    random_3cnf,
    satisfiability_to_detection,
    subset_sum_to_detection,
    to_nonmonotone_3cnf,
)
from repro.simulation import protocols
from repro.slicing import ConjunctiveSlice
from repro.trace import random_computation

#: Timed passes per experiment, after one untimed warm-up pass.
PASSES = 5
#: Seed of the per-iteration shuffle of the experiment order.
ORDER_SEED = 2001
#: ``--baseline`` fails an experiment whose median exceeds its baseline
#: median by more than this factor.
MAX_SLOWDOWN = 2.0
#: Experiments faster than this in the baseline are skipped by the
#: regression gate: their timings are scheduler noise, not signal.
NOISE_FLOOR_MS = 20.0


class Table:
    """One pass of one experiment: its table rows and its timed points."""

    def __init__(self) -> None:
        self.title = ""
        self.rows: List[tuple] = []
        self.timed_ms = 0.0

    def header(self, exp_id: str, claim: str) -> None:
        self.title = f"## {exp_id} — {claim}"

    def row(self, *cells) -> None:
        self.rows.append(cells)

    def timed(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one timed point; returns (result, ms)."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, self.record((time.perf_counter() - start) * 1000.0)

    def record(self, ms: float) -> float:
        """Count ``ms``, measured by the workload itself, as a timed point."""
        self.timed_ms += ms
        return ms


def print_row(*cells) -> None:
    print("  " + " | ".join(f"{c}" for c in cells))


def merged_cell(cells: tuple):
    """One table cell over all timed passes: the median of a numeric
    cell (floats to two decimals), otherwise the last pass's value."""
    if all(
        isinstance(c, (int, float)) and not isinstance(c, bool)
        for c in cells
    ):
        value = statistics.median(cells)
        return f"{value:.2f}" if isinstance(value, float) else value
    return cells[-1]


def print_table(tables: List[Table], median: float, iqr: float) -> None:
    print(f"\n{tables[-1].title}")
    for rows in zip(*(t.rows for t in tables)):
        print_row(*(merged_cell(cells) for cells in zip(*rows)))
    print(f"  (timed points: median {median:.2f} ms, IQR {iqr:.2f} ms "
          f"over {len(tables)} passes)")


def f1_conj(t: Table) -> None:
    t.header("F1-conj", "conjunctive predicates are polynomial (CPDHB)")
    t.row("processes", "events", "holds", "time_ms")
    for n in (2, 4, 8, 16, 32):
        comp, pred = conjunctive_workload(n)
        result, ms = t.timed(detect_conjunctive, comp, pred)
        t.row(n, comp.total_events(), result.holds, ms)


def f1_sing_special(t: Table) -> None:
    t.header(
        "F1-sing-special",
        "singular k-CNF is polynomial on receive-/send-ordered traces (CPDSC)",
    )
    t.row("groups", "ordering", "holds", "time_ms")
    for ordering in ("receive", "send"):
        for m in (2, 4, 8, 12):
            comp, pred = singular_workload(
                m, group_size=3, events_per_process=12, ordering=ordering
            )
            result, ms = t.timed(detect_special_case, comp, pred)
            t.row(m, ordering, result.holds, ms)


def f1_sing_general(t: Table) -> None:
    t.header(
        "F1-sing-general",
        "general singular k-CNF: Section 3.3 engines vs lattice enumeration",
    )
    t.row("groups", "engine", "combinations/cuts", "holds", "time_ms")
    for m in (2, 3, 4, 5):
        comp, pred = singular_workload(m, 2, events_per_process=8)
        chain, ms_chain = t.timed(detect_by_chain_choice, comp, pred)
        t.row(m, "chain-choice", chain.stats["combinations"], chain.holds,
              ms_chain)
        proc, ms_proc = t.timed(detect_by_process_choice, comp, pred)
        t.row(m, "process-choice", proc.stats["combinations"], proc.holds,
              ms_proc)
    for m in (2, 3):
        comp, pred = singular_workload(m, 2, events_per_process=3)
        enum, ms_enum = t.timed(possibly_enumerate, comp, pred)
        t.row(m, "cooper-marzullo", enum.stats["cuts_explored"], enum.holds,
              ms_enum)


def f1_general_cnf(t: Table) -> None:
    t.header(
        "F1-general-cnf",
        "non-singular CNF: one literal choice per clause, one combination "
        "search (Stoller–Schneider)",
    )
    t.row("instance", "clauses", "combinations", "invocations", "holds",
          "time_ms")
    instances = [
        ("pipelines", general_cnf_workload(True), True),
        ("pipelines-seq", general_cnf_workload(False), False),
        # Seed 0: the first literal choice holds.  Seed 1: the first 90
        # choices each pair x with not x on some process and fail.
        ("random-s0", random_cnf_workload(0), True),
        ("random-s1", random_cnf_workload(1), True),
    ]
    for name, (comp, pred), holds in instances:
        result, ms = t.timed(detect_cnf_by_literal_choice, comp, pred)
        assert result.holds == holds
        t.row(name, len(pred.clauses), result.stats["combinations"],
              result.stats["invocations"], result.holds, ms)


def f1_rel_ineq(t: Table) -> None:
    t.header("F1-rel-ineq", "sum inequalities are polynomial via min-cut")
    t.row("processes", "regime", "bound", "time_ms")
    at_most = sum_predicate("v", "<=", 0)
    at_least = sum_predicate("v", ">=", 100)
    for n in (2, 4, 8, 16, 32):
        comp = unit_walk_workload(n)
        result, ms = t.timed(possibly_sum, comp, at_most)
        t.row(n, "±1 walks", result.stats["min_sum"], ms)
    for n in (2, 4, 8, 16, 32):
        comp = arbitrary_walk_workload(n)
        result, ms = t.timed(possibly_sum, comp, at_least)
        t.row(n, "arbitrary", result.stats["max_sum"], ms)


def f1_sum_eq_unit(t: Table) -> None:
    t.header("F1-sum-eq-unit", "sum = k is polynomial under ±1 steps (Thm 7)")
    t.row("processes", "k", "holds", "min..max", "time_ms")
    for n in (2, 4, 8, 16, 32):
        comp = unit_walk_workload(n)
        pred = sum_predicate("v", "==", n // 2)
        result, ms = t.timed(possibly_sum, comp, pred)
        t.row(n, n // 2, result.holds,
              f"{result.stats['min_sum']}..{result.stats['max_sum']}", ms)
    t.row("definitely(sum = 0), small scale:", "", "", "", "")
    zero = sum_predicate("v", "==", 0)
    for n in (2, 3, 4):
        comp = unit_walk_workload(n, events_per_process=6)
        result, ms = t.timed(definitely_sum, comp, zero)
        assert result.algorithm == "theorem7-unit-step"
        t.row(n, 0, result.holds, "-", ms)


def f1_sum_eq_arbitrary(t: Table) -> None:
    t.header(
        "F1-sum-eq-arb",
        "sum = k is NP-complete under arbitrary increments (Thm 2): "
        "exponential exact engine vs flat ±1 contrast",
    )
    t.row("elements", "engine", "reachable_sums", "time_ms")
    for n in (8, 10, 12, 14, 16, 18):
        comp, pred = subset_sum_to_detection(exponential_subset_sum(n))
        result, ms = t.timed(possibly_sum_eq_exact, comp, pred)
        # The middle target is a subset sum (its binary digits).
        assert result.holds and result.algorithm == "sumset-dp"
        t.row(n, "exact (sumset DP)", result.stats["achievable_sums"], ms)
    one = sum_predicate("v", "==", 1)
    for n in (8, 10, 12, 14, 16, 18):
        comp = unit_walk_workload(n, events_per_process=16)
        result, ms = t.timed(possibly_sum, comp, one)
        t.row(n, "±1 (Theorem 7)", "-", ms)


def f2(t: Table) -> None:
    t.header("F2", "the paper's Figure 2 computation, validated")
    from repro.computation import ComputationBuilder, least_consistent_cut

    builder = ComputationBuilder(4)
    for p in range(4):
        builder.init_values(p, x=False)
    builder.internal(0, label="e", x=True)
    builder.send(1, label="f", x=True)
    builder.receive(2, label="g", x=True)
    builder.internal(3, label="h", x=True)
    builder.message("f", "g")
    comp = builder.build()
    labels = comp.label_index()
    e, f, g, h = labels["e"], labels["f"], labels["g"], labels["h"]
    t.row("fact", "value")
    t.row("e and h consistent", comp.pairwise_consistent(e, h))
    t.row("f happened-before g", comp.happened_before(f, g))
    t.row("e and h independent", comp.concurrent(e, h))
    t.row("f and g independent", comp.concurrent(f, g))
    t.row("consistent cuts", count_consistent_cuts(comp))
    t.row("cut through e and h",
          least_consistent_cut(comp, [e, h]).frontier)


def f3(t: Table) -> None:
    t.header("F3", "Figure 3 reduction: SAT <=> possibly(B) on the gadget")
    t.row("clauses(src)", "clauses(nm)", "processes", "sat", "detected",
          "invocations", "time_ms")
    for nc in (4, 6, 8, 10):
        formula, _ = to_nonmonotone_3cnf(random_3cnf(max(4, nc), nc, seed=nc))
        instance = satisfiability_to_detection(formula)
        sat = dpll_solve(instance.formula) is not None
        result, ms = t.timed(
            detect_by_chain_choice, instance.computation, instance.predicate
        )
        assert result.holds == sat
        t.row(nc, len(instance.formula.clauses),
              instance.computation.num_processes, sat, result.holds,
              result.stats["invocations"], ms)


def t_sym(t: Table) -> None:
    t.header("T-sym", "Section 4.3 symmetric predicates on a resource pool")
    workers, capacity = 8, 3
    comp = protocols.build_resource_pool(workers, capacity, rounds=3, seed=5)
    n = workers + 1
    t.row("predicate", "holds", "time_ms")
    for name, pred, expected in (
        ("absence of simple majority", absence_of_simple_majority("busy", n),
         True),  # the initial state has nobody busy
        ("absence of two-thirds majority",
         absence_of_two_thirds_majority("busy", n), True),
        (f"exactly {capacity} busy (saturation)",
         exactly_k_tokens("busy", n, capacity), None),
        # The coordinator enforces the capacity.
        (f"exactly {capacity + 1} busy (over capacity)",
         exactly_k_tokens("busy", n, capacity + 1), False),
        # A single busy worker is an odd count.
        ("exclusive-or", exclusive_or("busy", n), True),
        ("not-all-equal", not_all_equal("busy", n), True),
    ):
        result, ms = t.timed(possibly_symmetric, comp, pred)
        assert expected is None or result.holds == expected, name
        t.row(name, result.holds, ms)


def t_lattice(t: Table) -> None:
    t.header("T-lattice", "the combinatorial explosion (lattice size vs n)")
    t.row("processes", "consistent cuts", "time_ms")
    events = 4
    for n in (2, 3, 4, 5, 6):
        comp = random_computation(n, events, 0.1, seed=13)
        count, ms = t.timed(count_consistent_cuts, comp)
        # With density 0.1 the lattice stays near the full grid.
        assert (events + 1) ** (n - 1) <= count <= (events + 1) ** n
        t.row(n, count, ms)


def t_chain(t: Table) -> None:
    t.header(
        "T-chain",
        "ablation: chain-cover (c^m) vs process-choice (k^m) combinations",
    )
    t.row("groups", "chains/group", "satisfiable", "chain combos",
          "process combos", "speedup", "chain_ms", "process_ms")
    k = 4
    for satisfiable in (True, False):
        for m in (2, 4, 6, 8):
            for c in (1, 2):
                comp, pred = chain_structured_group(
                    m, k, chains_per_group=c, satisfiable=satisfiable
                )
                chain, ms_chain = t.timed(detect_by_chain_choice, comp, pred)
                proc, ms_proc = t.timed(detect_by_process_choice, comp, pred)
                assert chain.holds == proc.holds == satisfiable
                combos = (chain.stats["combinations"],
                          proc.stats["combinations"])
                assert combos == (c**m, k**m)
                t.row(m, c, satisfiable, *combos,
                      f"{combos[1] / combos[0]:.0f}x", ms_chain, ms_proc)


def t_search(t: Table) -> None:
    t.header(
        "T-search",
        "the Section 3.3 combination search on the families that defeat "
        "a rank sweep or prefix pruning alone",
    )
    t.row("workload", "combinations", "holds", "nodes", "pair_checks",
          "time_ms")
    # Only the last group conflicts (with group 0): pruning prefixes alone
    # would explore every choice for the other groups first.
    for m in (6, 8):
        comp, pred = last_group_conflict(m)
        result, ms = t.timed(detect_by_process_choice, comp, pred)
        assert not result.holds
        assert result.stats["combinations"] == 4**m
        t.row(f"last-group conflict m={m}", result.stats["combinations"],
              result.holds, result.stats["invocations"],
              result.stats["pair_checks"], ms)
    # An unsatisfiable Figure 3 gadget of 2^42 chain combinations, far
    # past any rank sweep; DPLL is the referee.
    formula, _ = to_nonmonotone_3cnf(random_3cnf(5, 30, seed=0))
    assert dpll_solve(formula) is None
    instance = satisfiability_to_detection(formula)
    result, ms = t.timed(
        detect_by_chain_choice, instance.computation, instance.predicate
    )
    assert not result.holds
    assert result.stats["combinations"] == 2**42
    t.row("unsatisfiable Fig. 3 gadget", "2^42", result.holds,
          result.stats["invocations"], result.stats["pair_checks"], ms)


def t_slice(t: Table) -> None:
    t.header("T-slice", "slicing vs filtering the lattice (satisfying cuts)")
    from repro.computation import iter_consistent_cuts
    from repro.trace import BoolVar

    t.row("processes", "lattice", "satisfying", "slice_ms", "filter_ms")
    for n in (3, 4, 5):
        comp = random_computation(
            n, 5, 0.2, seed=29, variables=[BoolVar("x", 0.45)]
        )
        pred = conjunctive(*(local(p, "x") for p in range(n)))
        slc = ConjunctiveSlice(comp, pred)
        count, ms_slice = t.timed(slc.count)
        total, ms_filter = t.timed(
            lambda: sum(
                1 for cut in iter_consistent_cuts(comp)
                if pred.evaluate(cut)
            )
        )
        lattice = count_consistent_cuts(comp)
        assert count == total
        t.row(n, lattice, count, ms_slice, ms_filter)


def t_definitely(t: Table) -> None:
    t.header(
        "T-definitely",
        "ablation: interval-anchor vs lattice reachability for "
        "definitely(conjunctive)",
    )
    from repro.detection import definitely_conjunctive, definitely_enumerate
    from repro.slicing import sliced_definitely_enumerate
    from repro.trace import BoolVar

    t.row("processes", "holds", "anchor_ms", "lattice cuts", "lattice_ms",
          "sliced cuts", "sliced_ms", "reduction")
    for n in (3, 4, 5, 6):
        comp = random_computation(
            n, 6, 0.25, seed=41, variables=[BoolVar("x", 0.5)]
        )
        pred = conjunctive(*(local(p, "x") for p in range(n)))
        fast, ms_fast = t.timed(definitely_conjunctive, comp, pred)
        slow, ms_slow = t.timed(definitely_enumerate, comp, pred)
        sliced, ms_sliced = t.timed(sliced_definitely_enumerate, comp, pred)
        assert fast.holds == slow.holds == sliced.holds
        t.row(n, fast.holds, ms_fast,
              slow.stats.get("cuts_explored", "-"), ms_slow,
              sliced.stats.get("cuts_explored", "-"), ms_sliced,
              f"{sliced.stats.get('reduction', 1.0):.1f}x")


def t_online(t: Table) -> None:
    t.header("T-online", "streaming monitor replay throughput")
    from repro.computation import some_linearization
    from repro.trace import BoolVar

    t.row("processes", "observations", "detected", "time_ms", "obs/ms")
    for n in (4, 8, 16):
        comp = random_computation(
            n, 32, 0.2, seed=31, variables=[BoolVar("x", 0.3)]
        )
        order = some_linearization(comp)
        stream = []
        for p in range(n):
            ev = comp.initial_event(p)
            stream.append((p, 0, comp.clock(ev.event_id),
                           bool(ev.value("x", False))))
        for eid in order:
            ev = comp.event(eid)
            stream.append((eid[0], eid[1], comp.clock(eid),
                           bool(ev.value("x", False))))

        def replay():
            monitor = OnlineConjunctiveMonitor(n, range(n))
            for item in stream:
                if monitor.observe(*item):
                    break
            else:
                monitor.finish_all()
            return monitor

        monitor, ms = t.timed(replay)
        t.row(n, len(stream), monitor.detected, ms,
              len(stream) / max(ms, 0.001))


def t_protocols(t: Table) -> None:
    t.header("T-protocols", "the motivating queries on protocol traces")
    from repro.detection import (
        definitely_enumerate,
        definitely_symmetric,
        detect_stable,
    )

    mutex = conjunctive(local(1, "cs"), local(2, "cs"))
    t.row("query", "engine", "events", "holds", "time_ms")
    for name, comp, engine, pred, expected in (
        ("mutual exclusion (token ring)",
         protocols.build_token_ring(6, hops=10, seed=21, rogue_process=2),
         detect_conjunctive, mutex, None),
        ("leader uniqueness", protocols.build_leader_election(8, seed=21),
         definitely_symmetric, exactly_k_tokens("leader", 8, 1), True),
        ("replication progress", protocols.build_primary_backup(3, 4, seed=21),
         possibly_sum, sum_predicate("applied", "==", 8), True),
        ("pool saturation",
         protocols.build_resource_pool(6, 2, rounds=3, seed=21),
         possibly_symmetric, exactly_k_tokens("busy", 7, 2), None),
        ("commit point", protocols.build_two_phase_commit(4, seed=21),
         definitely_enumerate,
         conjunctive(*(local(p, "committed") for p in range(1, 5))), True),
        ("mutual exclusion (Ricart-Agrawala)",
         protocols.build_ricart_agrawala(5, rounds=2, seed=21, never_defers=2),
         detect_conjunctive, mutex, None),
        ("deadlock",
         protocols.build_lock_scenario(False, seed=21, stagger=0.3),
         detect_stable, conjunctive(local(2, "blocked"), local(3, "blocked")),
         True),
    ):
        result, ms = t.timed(engine, comp, pred)
        assert expected is None or result.holds == expected, name
        t.row(name, engine.__name__, comp.total_events(), result.holds, ms)


def t_classify(t: Table) -> None:
    t.header(
        "T-classify",
        "static classification of opaque conjunctive predicates: "
        "inference + fast engine vs raw lattice enumeration",
    )
    from repro.analysis.classify import classification_for, clear_cache, opaquify
    from repro.detection import detect

    t.row("processes", "events", "engine", "holds", "classify_ms",
          "dispatch_ms", "enumeration_ms", "speedup")
    calibration = (5, 8)
    for n, events in ((3, 6), (4, 8), calibration):
        comp, pred = conjunctive_workload(n, events_per_process=events)
        wrapped = opaquify(pred)
        clear_cache()
        # Cold: one full classification (parse + rewrite + differential
        # validation); dispatch then reuses the cached certificate.
        certificate, ms_classify = t.timed(classification_for, wrapped, comp)
        assert certificate is not None and certificate.validated
        inferred, ms_dispatch = t.timed(detect, comp, wrapped)
        assert inferred.algorithm.startswith("classify:")
        enum, ms_enum = t.timed(possibly_enumerate, comp, wrapped)
        assert inferred.holds == enum.holds
        speedup = ms_enum / (ms_classify + ms_dispatch)
        t.row(n, comp.total_events(), inferred.algorithm, inferred.holds,
              ms_classify, ms_dispatch, ms_enum, speedup)
        if (n, events) == calibration:
            # The acceptance bounds: at calibration size the inferred
            # fast engine (classification cost included) beats raw
            # enumeration by >= 2x, and classification itself costs
            # less than half the enumeration it replaces.
            assert speedup >= 2.0, (
                f"inference+fast-engine speedup {speedup:.2f}x < 2x"
            )
            assert ms_classify < ms_enum / 2, (
                f"classification overhead {ms_classify:.1f}ms not bounded "
                f"by half of enumeration ({ms_enum:.1f}ms)"
            )


def t_service(t: Table) -> None:
    t.header("T-service", "multi-session monitoring service under load")
    t.row("sessions", "workers", "applied", "shed", "obs/s",
          "ttd_p50_ms", "ttd_p95_ms", "queue_hw")
    for sessions, workers in ((8, 2), (16, 4), (32, 4)):
        summary = run_load(
            sessions=sessions,
            workers=workers,
            events_per_process=16,
            queue_capacity=16,
            policy="degrade",
            seed=7,
        )
        # The timed point is the load phase: feeding every session and
        # closing it.  Workload generation and service boot are set-up.
        t.record(summary["wall_s"] * 1000.0)
        assert summary["queue_bound_ok"], (
            "queue memory bound violated: high water "
            f"{summary['max_queue_high_water']} > capacity + controls"
        )
        t.row(
            sessions,
            workers,
            summary["applied"],
            summary["shed"],
            summary["throughput_obs_per_s"],
            summary["ttd_p50_ms"],
            summary["ttd_p95_ms"],
            summary["max_queue_high_water"],
        )


EXPERIMENTS: Dict[str, Callable[[Table], None]] = {
    "F1-conj": f1_conj,
    "F1-sing-special": f1_sing_special,
    "F1-sing-general": f1_sing_general,
    "F1-general-cnf": f1_general_cnf,
    "F1-rel-ineq": f1_rel_ineq,
    "F1-sum-eq-unit": f1_sum_eq_unit,
    "F1-sum-eq-arb": f1_sum_eq_arbitrary,
    "F2": f2,
    "F3": f3,
    "T-sym": t_sym,
    "T-lattice": t_lattice,
    "T-chain": t_chain,
    "T-search": t_search,
    "T-slice": t_slice,
    "T-definitely": t_definitely,
    "T-online": t_online,
    "T-protocols": t_protocols,
    "T-classify": t_classify,
    "T-service": t_service,
}


def run_passes(
    wanted: List[str], capture: bool
) -> Tuple[Dict[str, List[Table]], Dict[str, Dict]]:
    """One warm-up pass per experiment, then ``PASSES`` timed passes.

    Returns the timed passes' tables per experiment id, and — with
    ``capture`` — the metrics snapshot of each experiment's warm-up.
    """
    snapshots: Dict[str, Dict] = {}
    for exp_id in wanted:
        if capture:
            with obs.Capture() as cap:
                EXPERIMENTS[exp_id](Table())
            snapshots[exp_id] = cap.registry.snapshot()
        else:
            EXPERIMENTS[exp_id](Table())
    passes: Dict[str, List[Table]] = {exp_id: [] for exp_id in wanted}
    order = list(wanted)
    rng = random.Random(ORDER_SEED)
    for _ in range(PASSES):
        rng.shuffle(order)
        for exp_id in order:
            table = Table()
            EXPERIMENTS[exp_id](table)
            passes[exp_id].append(table)
    return passes, snapshots


def machine_record() -> Dict[str, object]:
    """The machine and runtime that a run's medians were measured on."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cores": cores,
    }


def check_baseline(
    baseline_path: str,
    medians: Dict[str, float],
    iqrs: Dict[str, float],
) -> int:
    """Compare this run's medians against a committed baseline.

    Returns the number of regressions (experiments slower than
    ``MAX_SLOWDOWN`` × their baseline median, baseline above the noise
    floor).  Warns once, without changing the comparison, when the
    baseline records no machine or a different one.
    """
    with open(baseline_path) as handle:
        snapshot = json.load(handle)
    baseline = snapshot["experiments"]
    recorded, here = snapshot.get("machine"), machine_record()
    if recorded != here:
        which = ("records no machine" if recorded is None
                 else f"was measured on {recorded}")
        print(f"warning: the baseline {which}, this run on {here}; "
              "medians may not be comparable", file=sys.stderr)
    print(f"\n## Baseline comparison ({baseline_path}, "
          f"max slowdown {MAX_SLOWDOWN:.1f}x, medians of {PASSES} passes)")
    print_row("experiment", "baseline_ms", "median_ms", "iqr_ms", "ratio",
              "verdict")
    regressions = 0
    for exp_id, current_ms in medians.items():
        cells = (f"{current_ms:.1f}", f"{iqrs[exp_id]:.1f}")
        entry = baseline.get(exp_id)
        if entry is None:
            print_row(exp_id, "-", *cells, "-", "no baseline")
            continue
        base_ms = entry["wall_time_ms"]
        ratio = current_ms / base_ms if base_ms > 0 else float("inf")
        if base_ms < NOISE_FLOOR_MS:
            verdict = "skipped (noise floor)"
        elif ratio > MAX_SLOWDOWN:
            regressions += 1
            verdict = "REGRESSION"
        else:
            verdict = "ok"
        print_row(exp_id, f"{base_ms:.1f}", *cells, f"{ratio:.2f}", verdict)
    return regressions


def append_ledger_record(
    ledger_flag: "str | None",
    argv: List[str],
    wanted: List[str],
    medians: Dict[str, float],
    regressions: int,
    exit_code: int,
    started_at: str,
    wall_ms: float,
    cpu_ms: float,
) -> None:
    """Record this benchmark run in the run ledger (see docs/RUNS.md)."""
    from repro.obs import ledger

    path = ledger.resolve_ledger_path(ledger_flag)
    if path is None:
        return
    stats: Dict[str, float] = {
        "experiments": len(wanted),
        "regressions": regressions,
    }
    for exp_id, ms in medians.items():
        stats[f"wall.{exp_id}"] = round(ms, 3)
    record = {
        "command": "bench",
        "argv": list(argv),
        "args_fingerprint": ledger.fingerprint_args("bench", argv),
        "started_at": started_at,
        "wall_ms": wall_ms,
        "cpu_ms": cpu_ms,
        "exit_code": exit_code,
        "verdict": "regressions" if regressions else "ok",
        "trace": None,
        "stats": stats,
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "spans": [],
        "extra": {},
    }
    try:
        full = ledger.append_record(path, record)
        print(f"\nappended run record {full['id']} to {path}")
    except OSError as exc:
        print(f"warning: could not append run record: {exc}", file=sys.stderr)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*", metavar="EXP_ID")
    parser.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write per-experiment medians, IQRs and metrics snapshots "
        "(counters, gauges, histogram summaries) as JSON",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="BENCH.json",
        help="compare medians against a committed --json snapshot; exit 1 "
        f"when any experiment is more than {MAX_SLOWDOWN:.1f}x slower",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="run-ledger path (default: $REPRO_RUNS or .repro/runs.jsonl; "
        "'off' disables)",
    )
    args = parser.parse_args(argv)
    wanted = args.experiments or list(EXPERIMENTS)
    unknown = [w for w in wanted if w not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        print(f"known: {list(EXPERIMENTS)}", file=sys.stderr)
        return 2
    started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    run_wall_start = time.perf_counter()
    run_cpu_start = time.process_time()
    passes, snapshots = run_passes(wanted, args.json_path is not None)
    print("# Experiment report (regenerated)")
    medians: Dict[str, float] = {}
    iqrs: Dict[str, float] = {}
    for exp_id in wanted:
        samples = [table.timed_ms for table in passes[exp_id]]
        q1, _, q3 = statistics.quantiles(samples, n=4)
        medians[exp_id] = statistics.median(samples)
        iqrs[exp_id] = q3 - q1
        print_table(passes[exp_id], medians[exp_id], iqrs[exp_id])
    if args.json_path is not None:
        experiments = {
            exp_id: {
                "wall_time_ms": round(medians[exp_id], 3),
                "iqr_ms": round(iqrs[exp_id], 3),
                "metrics": snapshots[exp_id],
            }
            for exp_id in wanted
        }
        with open(args.json_path, "w") as handle:
            json.dump(
                {"machine": machine_record(), "experiments": experiments},
                handle, indent=2,
            )
        print(f"\nwrote metrics snapshots to {args.json_path}")
    regressions = 0
    if args.baseline is not None:
        regressions = check_baseline(args.baseline, medians, iqrs)
    code = 1 if regressions else 0
    append_ledger_record(
        args.ledger, argv, wanted, medians, regressions, code,
        started_at,
        wall_ms=(time.perf_counter() - run_wall_start) * 1000.0,
        cpu_ms=(time.process_time() - run_cpu_start) * 1000.0,
    )
    if regressions:
        print(f"\n{regressions} experiment(s) regressed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
