"""Regenerate the committed regression corpus.

Run from the repo root:

    PYTHONPATH=src python tests/corpus/regenerate.py

Each case targets one engine pair (the ``pins`` field).  The search is
deterministic: fixed generator shapes, seeds probed in order, first seed
whose instance satisfies the case's *criterion* wins.  The criterion —
every applicable engine agrees on the recorded verdict, plus a
case-specific structural property — is also the shrinker's
interestingness test, so minimization cannot collapse the instance into
something that no longer exercises the pinned pair.

If any engine ever *disagrees* during the search, that is a real bug:
the script aborts loudly instead of committing a poisoned case.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, Optional

from repro.computation import Computation, final_cut, initial_cut
from repro.detection import detect_by_chain_choice, detect_singular
from repro.predicates import (
    CNFPredicate,
    Clause,
    Literal,
    Modality,
    SymmetricPredicate,
    conjunctive,
    local,
    sum_predicate,
)
from repro.predicates.base import GlobalPredicate
from repro.predicates.errors import UnsupportedPredicateError
from repro.testkit import (
    CorpusCase,
    default_registry,
    save_case,
    shrink,
)
from repro.trace.generator import BoolVar, UnitWalkVar, grouped_computation, random_computation

CORPUS_DIR = Path(__file__).resolve().parent
REGISTRY = default_registry()

Structural = Callable[[Computation, GlobalPredicate], bool]


def _all_agree(
    comp: Computation,
    pred: GlobalPredicate,
    modality: Modality,
    expected: bool,
) -> Optional[bool]:
    """True if every applicable engine returns ``expected``.

    Returns None (and prints) on a genuine split vote — a real bug.
    """
    engines = REGISTRY.engines_for(pred, comp, modality)
    if not engines:
        return False
    votes = {}
    for engine in engines:
        try:
            votes[engine.name] = bool(engine.run(comp, pred))
        except UnsupportedPredicateError:
            continue
        except Exception:  # noqa: BLE001 - candidate is just uninteresting
            return False
    if len(set(votes.values())) > 1:
        print(f"ENGINE DISAGREEMENT (real bug?): {votes}", file=sys.stderr)
        return None
    return bool(votes) and all(v == expected for v in votes.values())


def _sum_at(comp: Computation, cut, variable: str) -> int:
    return sum(int(cut.value(p, variable)) for p in range(comp.num_processes))


def _literal_reachable(comp: Computation, lit: Literal) -> bool:
    """The literal is true after at least one event of its process."""
    want = not lit.negated
    return any(
        bool(ev.values.get(lit.variable)) == want
        for ev in comp.events_of(lit.process)
    )


def _make_case(
    name: str,
    pins: str,
    modality: Modality,
    expected: bool,
    generate: Callable[[int], tuple],
    structural: Structural,
    seeds: range = range(200),
) -> None:
    for seed in seeds:
        comp, pred = generate(seed)
        if not structural(comp, pred):
            continue
        agree = _all_agree(comp, pred, modality, expected)
        if agree is None:
            sys.exit(f"{name}: engines split at seed {seed}; fix that first")
        if not agree:
            continue

        def interesting(c: Computation, p: GlobalPredicate) -> bool:
            return bool(structural(c, p)) and _all_agree(
                c, p, modality, expected
            ) is True

        result = shrink(comp, pred, interesting)
        case = CorpusCase(
            name=name,
            pins=pins,
            modality=modality,
            expected=expected,
            computation=result.computation,
            predicate=result.predicate,
            provenance={
                "generator": "tests/corpus/regenerate.py",
                "search_seed": seed,
                "shrink": result.describe(),
            },
        )
        path = save_case(case, CORPUS_DIR)
        print(f"{path.name}: seed={seed} {result.describe()}")
        return
    sys.exit(f"{name}: no seed in {seeds} produced the wanted instance")


def main() -> None:
    bool_x = [BoolVar("x", density=0.4)]

    # 1. Conjunctive possibly=False where every conjunct is individually
    #    reachable: the verdict hinges on the happened-before interleaving,
    #    the exact scan the CPDHB elimination performs.
    def gen_conj(seed: int):
        comp = random_computation(
            3, 4, message_density=0.5, seed=seed, variables=bool_x
        )
        return comp, conjunctive(*(local(p, "x") for p in range(3)))

    def conj_structural(c: Computation, p: GlobalPredicate) -> bool:
        return len(c.messages) >= 1 and all(
            _literal_reachable(c, lit) for lit in p.conjuncts
        )

    _make_case(
        "pin-cpdhb-vs-brute-interleaving",
        "cpdhb vs brute (conjunctive, possibly)",
        Modality.POSSIBLY,
        False,
        gen_conj,
        conj_structural,
    )

    # 2. Singular 2-CNF possibly=False with the full 2x2 clause structure
    #    intact: chain-choice's per-clause chain sweep against the SAT
    #    reduction.
    def gen_2cnf(seed: int):
        comp = grouped_computation(
            2, 2, 3, message_density=0.5, seed=seed, variables=bool_x
        )
        pred = CNFPredicate(
            [
                Clause([Literal(0, "x"), Literal(1, "x")]),
                Clause([Literal(2, "x"), Literal(3, "x")]),
            ]
        )
        return comp, pred

    def cnf_2x2(c: Computation, p: GlobalPredicate) -> bool:
        return (
            isinstance(p, CNFPredicate)
            and len(p.clauses) == 2
            and all(len(cl) == 2 for cl in p.clauses)
            and len(c.messages) >= 1
        )

    _make_case(
        "pin-chain-choice-vs-sat-2cnf",
        "chain-choice vs sat (singular-cnf, possibly)",
        Modality.POSSIBLY,
        False,
        gen_2cnf,
        cnf_2x2,
    )

    # 3. Receive-ordered 2-CNF: the CPDSC special-case scan (what "auto"
    #    dispatches to) against the general chain-choice search.  The
    #    structural gate keeps the computation receive-ordered, otherwise
    #    shrinking could silently change which variant "auto" runs.
    def gen_receive(seed: int):
        comp = grouped_computation(
            2,
            2,
            3,
            message_density=0.5,
            seed=seed,
            variables=bool_x,
            ordering="receive",
        )
        pred = CNFPredicate(
            [
                Clause([Literal(0, "x"), Literal(1, "x")]),
                Clause([Literal(2, "x"), Literal(3, "x")]),
            ]
        )
        return comp, pred

    def receive_ordered(c: Computation, p: GlobalPredicate) -> bool:
        if not cnf_2x2(c, p):
            return False
        try:
            detect_singular(c, p, "special")
        except UnsupportedPredicateError:
            return False
        except Exception:  # noqa: BLE001
            return False
        return True

    _make_case(
        "pin-cpdsc-special-vs-chain-choice",
        "auto/cpdsc receive-ordered vs chain-choice (singular-cnf, possibly)",
        Modality.POSSIBLY,
        False,
        gen_receive,
        receive_ordered,
    )

    # 4. Sum == K possibly=True where neither the initial nor the final cut
    #    satisfies it: the witness lives strictly inside the lattice, which
    #    is what Theorem 7's dispatch and the exact algorithm must find.
    def gen_sum(seed: int):
        comp = random_computation(
            2,
            3,
            message_density=0.4,
            seed=seed,
            variables=[UnitWalkVar("v", floor=None)],
        )
        return comp, sum_predicate("v", "==", 2)

    def sum_interior_witness(c: Computation, p: GlobalPredicate) -> bool:
        if c.num_processes < 2 or c.total_events() < 2:
            return False
        k = p.constant
        return (
            _sum_at(c, initial_cut(c), p.variable) != k
            and _sum_at(c, final_cut(c), p.variable) != k
        )

    _make_case(
        "pin-sum-dispatch-vs-sum-exact",
        "sum-dispatch vs sum-exact (relational-sum, possibly)",
        Modality.POSSIBLY,
        True,
        gen_sum,
        sum_interior_witness,
    )

    # 5. Definitely=True conjunctive where neither endpoint cut satisfies
    #    the predicate: every run is forced through a satisfying cut
    #    mid-flight — the anchor construction against brute run
    #    enumeration.
    def gen_def(seed: int):
        comp = random_computation(
            2,
            3,
            message_density=0.5,
            seed=seed,
            variables=[BoolVar("x", density=0.6)],
        )
        return comp, conjunctive(local(0, "x"), local(1, "x"))

    def def_interior(c: Computation, p: GlobalPredicate) -> bool:
        return (
            c.total_events() >= 2
            and len({lit.process for lit in p.conjuncts}) >= 2
            and not p.evaluate(initial_cut(c))
            and not p.evaluate(final_cut(c))
        )

    _make_case(
        "pin-anchors-vs-brute-runs-definitely",
        "anchors vs brute-runs (conjunctive, definitely)",
        Modality.DEFINITELY,
        True,
        gen_def,
        def_interior,
    )

    # 6. Symmetric possibly=False: the count algorithm's reachable-count
    #    interval against brute cut enumeration.
    def gen_sym(seed: int):
        comp = random_computation(
            3, 3, message_density=0.5, seed=seed, variables=bool_x
        )
        return comp, SymmetricPredicate("x", 3, [3])

    def sym_structural(c: Computation, p: GlobalPredicate) -> bool:
        # Every process individually reaches x=true, so the False verdict
        # is about orderings, not a variable that never comes up.
        return (
            c.num_processes >= 2
            and c.total_events() >= 1
            and any(k <= c.num_processes for k in p.counts)
            and all(
                any(bool(ev.values.get(p.variable)) for ev in c.events_of(q))
                for q in range(c.num_processes)
            )
        )

    _make_case(
        "pin-count-vs-brute-symmetric",
        "count-algorithm vs brute (symmetric, possibly)",
        Modality.POSSIBLY,
        False,
        gen_sym,
        sym_structural,
    )

    # 7. A 2-CNF where the chain-choice sweep has >= 2 combinations AND the
    #    first one fails (invocations >= 2): the witness lives in a later
    #    combination, so the two-worker pool's partitioning of the sweep must
    #    reach the same verdict as the serial order.
    def parallel_sweep(c: Computation, p: GlobalPredicate) -> bool:
        if not cnf_2x2(c, p):
            return False
        try:
            stats = detect_by_chain_choice(c, p).stats
        except Exception:  # noqa: BLE001
            return False
        return (
            int(stats.get("combinations", 0)) >= 2
            and int(stats.get("invocations", 0)) >= 2
        )

    _make_case(
        "pin-parallel2-vs-serial-chain-choice",
        "chain-choice-parallel2 vs chain-choice (singular-cnf, possibly)",
        Modality.POSSIBLY,
        True,
        gen_2cnf,
        parallel_sweep,
        seeds=range(300),
    )


if __name__ == "__main__":
    main()
