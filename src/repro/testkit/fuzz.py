"""Differential fuzzer: run every registered engine on random instances
and flag any disagreement or crash.

Each iteration draws an *instance family* (predicate class + generator
shape + optional fault plan), generates a seeded instance through
:mod:`repro.trace.generator` (or, for the protocol family, the simulator
under a random fault plan), runs every engine the
:class:`~repro.testkit.registry.OracleRegistry` maps to the instance, and
compares verdicts.  A split vote or an engine crash is a *finding*; the
:mod:`~repro.testkit.shrink` minimizer then reduces the instance while the
same engine pair keeps disagreeing, and the result can be committed to the
regression corpus (:mod:`repro.testkit.corpus`).

Everything is driven by one ``random.Random(seed)`` stream, so a fuzz run
is bit-for-bit reproducible: same seed, same instances, same verdict log.
A wall-clock budget only decides *when to stop* — it never feeds the RNG —
so a budgeted run is a prefix of the unbudgeted one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.computation import Computation
from repro.obs import STATE, registry as obs_registry, span
from repro.obs.progress import tracker
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
from repro.testkit.registry import (
    EngineSpec,
    OracleRegistry,
    default_registry,
)
from repro.testkit.shrink import ShrinkResult, shrink
from repro.trace.generator import (
    BoolVar,
    UnitWalkVar,
    grouped_computation,
    random_computation,
)

__all__ = [
    "FuzzConfig",
    "InstanceLog",
    "Finding",
    "FuzzReport",
    "run_fuzz",
    "FAMILY_NAMES",
]

import random as _random

#: Sentinel verdict prefix for engines that raised.
CRASH = "crash"
#: Sentinel verdict for engines that declined the instance.
SKIP = "skip"

Instance = Tuple[Computation, GlobalPredicate, Modality]
Generator = Callable[["_random.Random", int], Instance]


# ----------------------------------------------------------------------
# Instance families
# ----------------------------------------------------------------------
def _bool_vars(rng: "_random.Random") -> List[BoolVar]:
    return [BoolVar("x", density=rng.choice([0.3, 0.45, 0.6]))]


def _gen_conjunctive(rng: "_random.Random", seed: int) -> Instance:
    n = rng.randint(2, 4)
    comp = random_computation(
        n,
        rng.randint(2, 4),
        rng.choice([0.2, 0.4, 0.6]),
        seed=seed,
        variables=_bool_vars(rng),
    )
    pred = conjunctive(
        *(local(p, "x", negated=rng.random() < 0.25) for p in range(n))
    )
    return comp, pred, Modality.POSSIBLY


def _gen_conjunctive_definitely(rng: "_random.Random", seed: int) -> Instance:
    n = rng.randint(2, 3)
    comp = random_computation(
        n,
        rng.randint(2, 3),
        rng.choice([0.3, 0.5]),
        seed=seed,
        variables=[BoolVar("x", density=rng.choice([0.5, 0.65]))],
    )
    pred = conjunctive(*(local(p, "x") for p in range(n)))
    return comp, pred, Modality.DEFINITELY


def _gen_singular_2cnf(rng: "_random.Random", seed: int) -> Instance:
    ordering = rng.choice([None, "receive", "send"])
    comp = grouped_computation(
        2,
        2,
        rng.randint(2, 3),
        message_density=rng.choice([0.3, 0.5]),
        seed=seed,
        variables=_bool_vars(rng),
        ordering=ordering,
    )
    pred = CNFPredicate(
        [
            Clause(
                [
                    Literal(0, "x", rng.random() < 0.3),
                    Literal(1, "x", rng.random() < 0.3),
                ]
            ),
            Clause(
                [
                    Literal(2, "x", rng.random() < 0.3),
                    Literal(3, "x", rng.random() < 0.3),
                ]
            ),
        ]
    )
    return comp, pred, Modality.POSSIBLY


def _gen_general_cnf(rng: "_random.Random", seed: int) -> Instance:
    n = rng.randint(3, 4)
    comp = random_computation(
        n,
        rng.randint(2, 4),
        rng.choice([0.3, 0.5]),
        seed=seed,
        variables=_bool_vars(rng),
    )
    # 2-5 clauses of width 1-3, literals of both polarities.  Widths lean
    # to 3 so that about one instance in seven has at least 64 literal
    # choices, enough for the combination search's prunings to matter.
    groups = [
        rng.sample(range(n), rng.choice((1, 2, 3, 3, 3)))
        for _ in range(rng.randint(2, 5))
    ]
    # The first two clauses share a process: deliberately non-singular.
    if groups[0][0] not in groups[1]:
        groups[1][0] = groups[0][0]
    pred = CNFPredicate(
        [
            Clause([Literal(p, "x", rng.random() < 0.5) for p in group])
            for group in groups
        ]
    )
    return comp, pred, Modality.POSSIBLY


def _gen_sum_eq(rng: "_random.Random", seed: int) -> Instance:
    comp = random_computation(
        rng.randint(2, 3),
        rng.randint(2, 3),
        rng.choice([0.3, 0.5]),
        seed=seed,
        variables=[UnitWalkVar("v", floor=None)],
    )
    pred = sum_predicate("v", "==", rng.choice([-1, 0, 1, 2]))
    return comp, pred, Modality.POSSIBLY


def _gen_sum_inequality(rng: "_random.Random", seed: int) -> Instance:
    comp = random_computation(
        rng.randint(2, 3),
        rng.randint(2, 3),
        rng.choice([0.3, 0.5]),
        seed=seed,
        variables=[UnitWalkVar("v", floor=None)],
    )
    relop = rng.choice(["<=", ">=", "<", ">", "!="])
    pred = sum_predicate("v", relop, rng.choice([-1, 0, 1, 2]))
    return comp, pred, Modality.POSSIBLY


def _gen_sum_definitely(rng: "_random.Random", seed: int) -> Instance:
    comp = random_computation(
        rng.randint(2, 3),
        2,
        rng.choice([0.3, 0.5]),
        seed=seed,
        variables=[UnitWalkVar("v", floor=None)],
    )
    pred = sum_predicate("v", "==", rng.choice([-1, 0, 1]))
    return comp, pred, Modality.DEFINITELY


def _gen_symmetric(rng: "_random.Random", seed: int) -> Instance:
    n = rng.randint(2, 4)
    comp = random_computation(
        n,
        rng.randint(2, 3),
        rng.choice([0.3, 0.5]),
        seed=seed,
        variables=_bool_vars(rng),
    )
    counts = [c for c in range(n + 1) if rng.random() < 0.4]
    if not counts:
        counts = [rng.randint(0, n)]
    pred = SymmetricPredicate("x", n, counts)
    return comp, pred, Modality.POSSIBLY


def _gen_protocol_faults(rng: "_random.Random", seed: int) -> Instance:
    """Token ring under a random fault plan — real traces, real faults."""
    from repro.simulation.faults import FaultPlan
    from repro.simulation.protocols import build_token_ring

    plan = FaultPlan(
        seed=seed,
        message_loss=rng.choice([0.0, 0.15, 0.3]),
        message_duplication=rng.choice([0.0, 0.15]),
    )
    comp = build_token_ring(
        3, hops=3, seed=seed, faults=plan if plan.any_faults else None
    )
    a, b = rng.sample(range(3), 2)
    pred = conjunctive(local(a, "cs"), local(b, "cs"))
    return comp, pred, Modality.POSSIBLY


def _gen_index_roundtrip(rng: "_random.Random", seed: int) -> Instance:
    """Simulator traces under random fault plans — crash/restart epochs
    included — as conjunctive instances, so the registry's
    ``index-roundtrip`` engine cross-checks the causality index's
    successor frontiers and consistency closure on them."""
    from repro.simulation.faults import CrashSpec, FaultPlan
    from repro.simulation.protocols import build_token_ring

    crashes = ()
    if rng.random() < 0.5:
        at = float(rng.randint(2, 5))
        delay = rng.choice([1.0, 2.0, None])
        crashes = (
            CrashSpec(
                process=rng.randrange(3),
                at=at,
                restart_at=None if delay is None else at + delay,
            ),
        )
    plan = FaultPlan(
        seed=seed,
        message_loss=rng.choice([0.0, 0.2]),
        message_duplication=rng.choice([0.0, 0.15]),
        crashes=crashes,
    )
    comp = build_token_ring(
        3, hops=3, seed=seed, faults=plan if plan.any_faults else None
    )
    a, b = rng.sample(range(3), 2)
    pred = conjunctive(local(a, "cs"), local(b, "cs"))
    return comp, pred, Modality.POSSIBLY


def _gen_slice_roundtrip(rng: "_random.Random", seed: int) -> Instance:
    """CNF with a genuine conjunctive over-approximation: single-process
    clauses survive the slice's clause projection, the one multi-process
    clause is dropped (inexact slice), and both modalities are drawn —
    food for the sliced-vs-unsliced parity engines of the registry."""
    n = 3
    comp = random_computation(
        n,
        rng.randint(2, 3),
        rng.choice([0.3, 0.5]),
        seed=seed,
        variables=[
            BoolVar("x", density=rng.choice([0.4, 0.6])),
            BoolVar("y", density=rng.choice([0.4, 0.6])),
        ],
    )
    pred = CNFPredicate(
        [
            Clause([Literal(0, "x", rng.random() < 0.3)]),
            Clause([Literal(1, "y", rng.random() < 0.3)]),
            Clause(
                [
                    Literal(1, "x", rng.random() < 0.5),
                    Literal(2, "y", rng.random() < 0.5),
                ]
            ),
        ]
    )
    modality = (
        Modality.DEFINITELY if rng.random() < 0.5 else Modality.POSSIBLY
    )
    return comp, pred, modality


def _gen_classify_roundtrip(rng: "_random.Random", seed: int) -> Instance:
    """Structured predicates drawn across every opaquifiable class.

    The registry's ``classify-opaque`` engine wraps each instance as an
    opaque ``FunctionPredicate``, lets the static classifier recover the
    class, and asserts verdict + witness parity against the directly
    dispatched engine — while the brute oracle anchors the same vote.
    """
    n = rng.randint(2, 3)
    events = rng.randint(2, 3)
    density = rng.choice([0.3, 0.5])
    kind = rng.randrange(4)
    if kind == 0:
        comp = random_computation(
            n, events, density, seed=seed, variables=_bool_vars(rng)
        )
        pred: GlobalPredicate = conjunctive(
            *(local(p, "x", negated=rng.random() < 0.25) for p in range(n))
        )
    elif kind == 1:
        comp = random_computation(
            3, events, density, seed=seed, variables=_bool_vars(rng)
        )
        pred = CNFPredicate(
            [
                Clause(
                    [
                        Literal(0, "x", rng.random() < 0.3),
                        Literal(1, "x", rng.random() < 0.3),
                    ]
                ),
                Clause([Literal(2, "x", rng.random() < 0.3)]),
            ]
        )
    elif kind == 2:
        comp = random_computation(
            n,
            events,
            density,
            seed=seed,
            variables=[UnitWalkVar("v", floor=None)],
        )
        relop = rng.choice(["<=", ">=", "<", ">", "==", "!="])
        pred = sum_predicate("v", relop, rng.choice([-1, 0, 1, 2]))
    else:
        comp = random_computation(
            n, events, density, seed=seed, variables=_bool_vars(rng)
        )
        counts = [c for c in range(n + 1) if rng.random() < 0.4]
        if not counts:
            counts = [rng.randint(0, n)]
        pred = SymmetricPredicate("x", n, counts)
    modality = (
        Modality.DEFINITELY if rng.random() < 0.3 else Modality.POSSIBLY
    )
    return comp, pred, modality


#: Family name -> generator, in the fixed order the RNG indexes into.
FAMILIES: Dict[str, Generator] = {
    "conjunctive": _gen_conjunctive,
    "conjunctive-definitely": _gen_conjunctive_definitely,
    "singular-2cnf": _gen_singular_2cnf,
    "general-cnf": _gen_general_cnf,
    "sum-eq": _gen_sum_eq,
    "sum-inequality": _gen_sum_inequality,
    "sum-definitely": _gen_sum_definitely,
    "symmetric": _gen_symmetric,
    "protocol-faults": _gen_protocol_faults,
    "slice-roundtrip": _gen_slice_roundtrip,
    "index-roundtrip": _gen_index_roundtrip,
    "classify-roundtrip": _gen_classify_roundtrip,
}

FAMILY_NAMES: Tuple[str, ...] = tuple(FAMILIES)


# ----------------------------------------------------------------------
# Configuration and report objects
# ----------------------------------------------------------------------
@dataclass
class FuzzConfig:
    """Knobs of one fuzz run.  Defaults match ``repro fuzz``."""

    seed: int = 0
    iterations: int = 50
    time_budget: Optional[float] = None  #: seconds; None = run all iterations
    families: Optional[Sequence[str]] = None  #: None = all families
    shrink: bool = True
    max_shrink_attempts: int = 5000
    registry: Optional[OracleRegistry] = None  #: None = default_registry()
    #: class name -> extra engines (e.g. a planted mutant under test).
    extra_engines: Mapping[str, Sequence[EngineSpec]] = field(
        default_factory=dict
    )

    def family_names(self) -> List[str]:
        if self.families is None:
            return list(FAMILY_NAMES)
        # Validate every requested name (a typo must not silently shrink
        # the sweep) and keep the caller's order, first occurrence wins —
        # the order is part of the reproducibility contract: the RNG
        # indexes into this list, so ``--family a --family b`` replays
        # bit-for-bit but is a different stream than ``--family b
        # --family a``, exactly as the config says.
        ordered: List[str] = []
        for name in self.families:
            if name not in FAMILIES:
                raise ValueError(
                    f"unknown fuzz family {name!r}; "
                    f"available: {list(FAMILY_NAMES)}"
                )
            if name not in ordered:
                ordered.append(name)
        return ordered


@dataclass
class InstanceLog:
    """One fuzzed instance and its verdict vote."""

    iteration: int
    family: str
    instance_seed: int
    modality: str
    shape: Tuple[int, int]  #: (processes, events)
    verdicts: Dict[str, object]  #: engine name -> bool | "skip" | "crash:..."
    agreed: bool

    def line(self) -> str:
        votes = {v for v in self.verdicts.values() if isinstance(v, bool)}
        verdict = votes.pop() if len(votes) == 1 else "split"
        base = (
            f"[{self.iteration:04d}] family={self.family} "
            f"seed={self.instance_seed} modality={self.modality} "
            f"shape={self.shape[0]}x{self.shape[1]} "
            f"engines={len(self.verdicts)} verdict={verdict}"
        )
        if self.agreed:
            return base + " agree"
        detail = " ".join(
            f"{name}={value}" for name, value in sorted(self.verdicts.items())
        )
        return base + " DISAGREE " + detail


@dataclass
class Finding:
    """A disagreement or crash, plus its minimized counterexample."""

    log: InstanceLog
    computation: Computation
    predicate: GlobalPredicate
    modality: Modality
    engine_pair: Tuple[str, str]  #: the two engines pinned by the shrinker
    shrink_result: Optional[ShrinkResult] = None

    @property
    def minimized_computation(self) -> Computation:
        if self.shrink_result is not None:
            return self.shrink_result.computation
        return self.computation

    @property
    def minimized_predicate(self) -> GlobalPredicate:
        if self.shrink_result is not None:
            return self.shrink_result.predicate
        return self.predicate


@dataclass
class FuzzReport:
    """Everything a fuzz run produced."""

    seed: int
    instances: List[InstanceLog] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    iterations_run: int = 0
    stopped_by_budget: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings

    def log_lines(self) -> List[str]:
        """The deterministic verdict log (no wall-clock content)."""
        lines = [line.line() for line in self.instances]
        for finding in self.findings:
            if finding.shrink_result is not None:
                lines.append(
                    f"  shrunk [{finding.log.iteration:04d}] "
                    f"{' vs '.join(finding.engine_pair)}: "
                    f"{finding.shrink_result.describe()}"
                )
        lines.append(
            f"fuzz: {self.iterations_run} instances, "
            f"{len(self.findings)} finding(s), seed={self.seed}"
        )
        return lines


# ----------------------------------------------------------------------
# Engine execution
# ----------------------------------------------------------------------
def _run_engines(
    engines: Sequence[EngineSpec],
    computation: Computation,
    predicate: GlobalPredicate,
) -> Dict[str, object]:
    verdicts: Dict[str, object] = {}
    for engine in engines:
        try:
            verdicts[engine.name] = bool(engine.run(computation, predicate))
        except UnsupportedPredicateError:
            verdicts[engine.name] = SKIP
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            verdicts[engine.name] = f"{CRASH}:{type(exc).__name__}"
    return verdicts


def _agreement(verdicts: Mapping[str, object]) -> bool:
    votes = {v for v in verdicts.values() if isinstance(v, bool)}
    crashed = any(
        isinstance(v, str) and v.startswith(CRASH) for v in verdicts.values()
    )
    return len(votes) <= 1 and not crashed


def _pin_engine_pair(
    verdicts: Mapping[str, object], oracle_name: Optional[str]
) -> Tuple[str, str]:
    """The two engine names the shrinker should hold onto.

    A crashing engine is pinned against itself (criterion: still crashes);
    otherwise prefer oracle-vs-dissenter, else the first split pair.
    """
    for name, value in sorted(verdicts.items()):
        if isinstance(value, str) and value.startswith(CRASH):
            return (name, name)
    reference = oracle_name
    if reference is None or not isinstance(verdicts.get(reference), bool):
        reference = next(
            name
            for name, value in sorted(verdicts.items())
            if isinstance(value, bool)
        )
    ref_verdict = verdicts[reference]
    for name, value in sorted(verdicts.items()):
        if isinstance(value, bool) and value != ref_verdict:
            return (reference, name)
    raise AssertionError("no disagreeing pair in a non-agreeing vote")


def _still_failing(
    pair: Tuple[str, str], engines_by_name: Mapping[str, EngineSpec]
) -> Callable[[Computation, GlobalPredicate], bool]:
    a, b = pair
    spec_a, spec_b = engines_by_name[a], engines_by_name[b]

    def interesting(comp: Computation, pred: GlobalPredicate) -> bool:
        if a == b:  # crash pin: the engine must still raise
            if not spec_a.applicable(comp, pred):
                return False
            try:
                spec_a.run(comp, pred)
            except UnsupportedPredicateError:
                return False
            except Exception:  # noqa: BLE001
                return True
            return False
        if not (
            spec_a.applicable(comp, pred) and spec_b.applicable(comp, pred)
        ):
            return False
        try:
            va = bool(spec_a.run(comp, pred))
            vb = bool(spec_b.run(comp, pred))
        except Exception:  # noqa: BLE001
            return False
        return va != vb

    return interesting


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------
def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run a differential fuzz sweep; deterministic for a given config."""
    registry = config.registry or default_registry()
    families = config.family_names()
    rng = _random.Random(config.seed)
    report = FuzzReport(seed=config.seed)
    started = time.monotonic()
    with span("testkit.fuzz", seed=config.seed, families=len(families)):
        trk = tracker("fuzz.iterations", total=config.iterations)
        for iteration in range(config.iterations):
            if (
                config.time_budget is not None
                and time.monotonic() - started >= config.time_budget
            ):
                report.stopped_by_budget = True
                break
            family = families[rng.randrange(len(families))]
            instance_seed = rng.randrange(2**31)
            computation, predicate, modality = FAMILIES[family](
                rng, instance_seed
            )
            extra = list(
                config.extra_engines.get(
                    registry.classify(predicate) or "", ()
                )
            )
            engines = registry.engines_for(
                predicate, computation, modality, include_extra=extra
            )
            verdicts = _run_engines(engines, computation, predicate)
            agreed = _agreement(verdicts)
            log = InstanceLog(
                iteration=iteration,
                family=family,
                instance_seed=instance_seed,
                modality=modality.value,
                shape=(computation.num_processes, computation.total_events()),
                verdicts=verdicts,
                agreed=agreed,
            )
            report.instances.append(log)
            report.iterations_run += 1
            trk.step()
            if STATE.enabled:
                obs_registry().counter("testkit.instances").inc()
                obs_registry().counter("testkit.engine_runs").inc(
                    len(verdicts)
                )
            if agreed:
                continue
            oracle = registry.oracle_for(predicate, modality)
            pair = _pin_engine_pair(
                verdicts, oracle.name if oracle else None
            )
            engines_by_name = {e.name: e for e in engines}
            shrink_result: Optional[ShrinkResult] = None
            if config.shrink:
                shrink_result = shrink(
                    computation,
                    predicate,
                    _still_failing(pair, engines_by_name),
                    max_attempts=config.max_shrink_attempts,
                )
            report.findings.append(
                Finding(
                    log=log,
                    computation=computation,
                    predicate=predicate,
                    modality=modality,
                    engine_pair=pair,
                    shrink_result=shrink_result,
                )
            )
            if STATE.enabled:
                obs_registry().counter("testkit.disagreements").inc()
                if any(
                    isinstance(v, str) and v.startswith(CRASH)
                    for v in verdicts.values()
                ):
                    obs_registry().counter("testkit.crashes").inc()
    return report
