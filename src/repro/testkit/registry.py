"""Oracle registry: which engines answer which predicate class, and against
which ground truth.

The library has three verdict-producing layers — the detection engines, the
SAT reductions, and the brute-force oracles — plus fast-path variants
(memoized indices, the combination search) that must all agree.  This module
makes the agreement obligation *data*: every predicate class maps to the
full set of applicable engines and to one exponential ground-truth oracle.

The differential fuzzer (:mod:`repro.testkit.fuzz`), the corpus replayer
(:mod:`repro.testkit.corpus`), and the cross-validation tests all consume
the same registry, so adding an engine here automatically enrolls it in
fuzzing, corpus replay, and CI.  See ``docs/TESTING.md`` for the matrix
and for how to register a new engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.computation import Computation
from repro.predicates import Modality
from repro.predicates.base import GlobalPredicate
from repro.predicates.boolean import CNFPredicate, Clause
from repro.predicates.conjunctive import (
    ConjunctivePredicate,
    conjunctive_view,
)
from repro.predicates.local import Literal
from repro.predicates.relational import RelationalSumPredicate, Relop
from repro.predicates.symmetric import SymmetricPredicate
from repro.testkit.oracles import brute_definitely, brute_possibly, rank_walk

__all__ = [
    "EngineSpec",
    "ClassSpec",
    "OracleRegistry",
    "default_registry",
    "as_cnf",
]

#: An engine adapter: (computation, predicate) -> boolean verdict.
EngineFn = Callable[[Computation, GlobalPredicate], bool]


@dataclass(frozen=True)
class EngineSpec:
    """One registered verdict producer.

    Args:
        name: Stable identifier used in fuzz logs and corpus files.
        modality: Which query the engine answers.
        run: Adapter returning the boolean verdict.
        is_oracle: Ground truth for its class (exactly one per class and
            modality).
        max_events: Skip the engine on computations with more non-initial
            events than this (exponential oracles and enumerators).
        applies: Optional extra gate, e.g. "relop is ``==``".
    """

    name: str
    modality: Modality
    run: EngineFn
    is_oracle: bool = False
    max_events: Optional[int] = None
    applies: Optional[Callable[[Computation, GlobalPredicate], bool]] = None

    def applicable(
        self, computation: Computation, predicate: GlobalPredicate
    ) -> bool:
        """Can this engine answer for the given instance?"""
        if self.max_events is not None:
            if computation.total_events() > self.max_events:
                return False
        if self.applies is not None and not self.applies(
            computation, predicate
        ):
            return False
        return True


@dataclass
class ClassSpec:
    """A predicate class: a recognizer plus its engine roster."""

    name: str
    matches: Callable[[GlobalPredicate], bool]
    engines: List[EngineSpec] = field(default_factory=list)

    def engines_for(self, modality: Modality) -> List[EngineSpec]:
        return [e for e in self.engines if e.modality is modality]


class OracleRegistry:
    """Predicate classes -> applicable engines + ground-truth oracle.

    Classification is first-match in registration order, so register more
    specific classes (conjunctive) before general ones (singular CNF).
    """

    def __init__(self) -> None:
        self._classes: List[ClassSpec] = []
        self._by_name: Dict[str, ClassSpec] = {}

    # -- registration ---------------------------------------------------
    def register_class(
        self, name: str, matches: Callable[[GlobalPredicate], bool]
    ) -> ClassSpec:
        """Add a predicate class; returns its (mutable) spec."""
        if name in self._by_name:
            raise ValueError(f"predicate class {name!r} already registered")
        spec = ClassSpec(name=name, matches=matches)
        self._classes.append(spec)
        self._by_name[name] = spec
        return spec

    def register_engine(self, class_name: str, engine: EngineSpec) -> None:
        """Enroll an engine in a class.

        Replaces any engine of the same name and modality; one name may
        serve both modalities (``classify-opaque`` does).
        """
        spec = self._by_name[class_name]
        if engine.is_oracle:
            for other in spec.engines_for(engine.modality):
                if other.is_oracle and other.name != engine.name:
                    raise ValueError(
                        f"class {class_name!r} already has oracle "
                        f"{other.name!r} for {engine.modality.value}"
                    )
        key = (engine.name, engine.modality)
        spec.engines = [
            e for e in spec.engines if (e.name, e.modality) != key
        ] + [engine]

    # -- lookup ---------------------------------------------------------
    @property
    def class_names(self) -> List[str]:
        return [spec.name for spec in self._classes]

    def get_class(self, name: str) -> ClassSpec:
        return self._by_name[name]

    def classify(self, predicate: GlobalPredicate) -> Optional[str]:
        """Name of the first class recognizing the predicate, or None."""
        for spec in self._classes:
            if spec.matches(predicate):
                return spec.name
        return None

    def engines_for(
        self,
        predicate: GlobalPredicate,
        computation: Computation,
        modality: Modality = Modality.POSSIBLY,
        include_extra: Sequence[EngineSpec] = (),
    ) -> List[EngineSpec]:
        """All engines applicable to this instance, oracle included."""
        name = self.classify(predicate)
        if name is None:
            return []
        roster = self._by_name[name].engines_for(modality) + list(include_extra)
        return [
            e for e in roster if e.applicable(computation, predicate)
        ]

    def oracle_for(
        self, predicate: GlobalPredicate, modality: Modality
    ) -> Optional[EngineSpec]:
        """The ground-truth oracle of the predicate's class."""
        name = self.classify(predicate)
        if name is None:
            return None
        for engine in self._by_name[name].engines_for(modality):
            if engine.is_oracle:
                return engine
        return None


# ----------------------------------------------------------------------
# Predicate view adapters
# ----------------------------------------------------------------------
def as_cnf(predicate: GlobalPredicate) -> Optional[CNFPredicate]:
    """View a predicate as CNF when a faithful translation exists."""
    if isinstance(predicate, CNFPredicate):
        return predicate
    if isinstance(predicate, ConjunctivePredicate):
        if all(isinstance(c, Literal) for c in predicate.conjuncts):
            return CNFPredicate(
                [Clause([c]) for c in predicate.conjuncts]  # type: ignore[list-item]
            )
    if isinstance(predicate, Literal):
        return CNFPredicate([Clause([predicate])])
    return None


def _has_cnf_view(computation: Computation, predicate: GlobalPredicate) -> bool:
    return as_cnf(predicate) is not None


def _is_sum_eq(computation: Computation, predicate: GlobalPredicate) -> bool:
    return (
        isinstance(predicate, RelationalSumPredicate)
        and predicate.relop is Relop.EQ
    )


def _opaquifiable(
    computation: Computation, predicate: GlobalPredicate
) -> bool:
    """Can the predicate be rendered as classifiable Python source?"""
    from repro.analysis.classify import predicate_source
    from repro.predicates import PredicateError

    try:
        predicate_source(predicate)
    except PredicateError:
        return False
    return True


def _check(condition: bool, message: str) -> None:
    """A cross-check that, unlike ``assert``, survives ``python -O``."""
    if not condition:
        raise AssertionError(message)


# ----------------------------------------------------------------------
# The default registry: every engine the library ships
# ----------------------------------------------------------------------
#: Instance-size ceiling for exponential oracles/enumerators.  The fuzzer
#: only generates instances below this, so in practice nothing is skipped.
ORACLE_MAX_EVENTS = 22

_DEFAULT: Optional[OracleRegistry] = None


def default_registry() -> OracleRegistry:
    """The registry covering every detection engine in the library.

    Built lazily once per process; mutate only through
    :meth:`OracleRegistry.register_engine` (tests that plant bugs pass the
    planted engine via ``include_extra`` instead of mutating this).
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = _build_default()
    return _DEFAULT


def _build_default() -> OracleRegistry:
    from repro.detection import (
        definitely_conjunctive,
        definitely_enumerate,
        definitely_sum,
        definitely_symmetric,
        detect_by_chain_choice,
        detect_by_process_choice,
        detect_cnf_by_literal_choice,
        detect_conjunctive,
        detect_singular,
        possibly_enumerate,
        possibly_sum,
        possibly_sum_eq_exact,
        possibly_symmetric,
    )
    from repro.reductions import possibly_via_sat
    from repro.slicing import (
        ConjunctiveSlice,
        sliced_definitely_enumerate,
        sliced_possibly_enumerate,
    )

    P, D = Modality.POSSIBLY, Modality.DEFINITELY

    def oracle_possibly(comp: Computation, pred: GlobalPredicate) -> bool:
        return brute_possibly(comp, pred.evaluate) is not None

    def oracle_definitely(comp: Computation, pred: GlobalPredicate) -> bool:
        return brute_definitely(comp, pred.evaluate)

    registry = OracleRegistry()

    # -- conjunctive (incl. singular 1-CNF) -----------------------------
    def is_conjunctive_class(pred: GlobalPredicate) -> bool:
        return conjunctive_view(pred) is not None

    registry.register_class("conjunctive", is_conjunctive_class)

    def run_cpdhb(comp: Computation, pred: GlobalPredicate) -> bool:
        return detect_conjunctive(comp, conjunctive_view(pred)).holds

    def run_slice(comp: Computation, pred: GlobalPredicate) -> bool:
        return not ConjunctiveSlice(comp, conjunctive_view(pred)).empty

    def run_anchors(comp: Computation, pred: GlobalPredicate) -> bool:
        return definitely_conjunctive(comp, conjunctive_view(pred)).holds

    def run_sliced_possibly(
        comp: Computation, pred: GlobalPredicate
    ) -> bool:
        """Slice-bounded enumeration with full parity checks against the
        unsliced engine: equal verdicts, and on True a valid witness of
        the same (minimum) size.  A broken parity raises, which the
        fuzzer records as a crash finding."""
        from repro.detection import possibly_enumerate as plain

        sliced = sliced_possibly_enumerate(comp, pred)
        unsliced = plain(comp, pred)
        _check(
            sliced.holds == unsliced.holds,
            f"verdict mismatch: sliced={sliced.holds} "
            f"unsliced={unsliced.holds}",
        )
        if sliced.holds:
            witness = sliced.witness
            _check(
                witness is not None
                and witness.is_consistent()
                and pred.evaluate(witness),
                "invalid sliced witness",
            )
            _check(
                witness.size() == unsliced.witness.size(),
                f"witness size mismatch: sliced={witness.size()} "
                f"unsliced={unsliced.witness.size()}",
            )
        return sliced.holds

    def run_sliced_definitely(
        comp: Computation, pred: GlobalPredicate
    ) -> bool:
        from repro.detection import definitely_enumerate as plain

        sliced = sliced_definitely_enumerate(comp, pred)
        unsliced = plain(comp, pred)
        _check(
            sliced.holds == unsliced.holds,
            f"verdict mismatch: sliced={sliced.holds} "
            f"unsliced={unsliced.holds}",
        )
        return sliced.holds

    def run_index_roundtrip(
        comp: Computation, pred: GlobalPredicate
    ) -> bool:
        """Walk every consistent frontier and cross-check the causality
        index against the reference cut operations: receive-delta
        successor frontiers against ``Cut.successors()``, order
        included, and the consistency closure of each one-process
        advance (which must be consistent, and the advance itself when
        that is already consistent).  Then return the CPDHB verdict.
        Any divergence raises — a crash finding for the fuzzer."""
        from repro.computation import Cut, initial_cut
        from repro.perf.causality import CausalityIndex

        index = CausalityIndex.of(comp)
        lengths = [len(comp.events_of(p)) for p in range(comp.num_processes)]
        start = initial_cut(comp).frontier
        seen = {start}
        wave = [start]
        while wave:
            nxt_wave = []
            for frontier in wave:
                successors = index.successor_frontiers(frontier)
                _check(
                    successors
                    == [c.frontier for c in Cut(comp, frontier).successors()],
                    f"successor frontiers diverge at {frontier}",
                )
                for p, length in enumerate(lengths):
                    if frontier[p] == length:
                        continue
                    raised = list(frontier)
                    raised[p] += 1
                    bumped = tuple(raised)
                    closure = tuple(index.consistency_closure(raised))
                    _check(
                        Cut(comp, closure).is_consistent(),
                        f"closure of {bumped} is inconsistent",
                    )
                    if bumped in successors:
                        _check(
                            closure == bumped,
                            f"closure moved consistent {bumped}",
                        )
                for nxt in successors:
                    if nxt not in seen:
                        seen.add(nxt)
                        nxt_wave.append(nxt)
            wave = nxt_wave
        return run_cpdhb(comp, pred)

    def run_rank_walk(comp: Computation, pred: GlobalPredicate) -> bool:
        """Walk every rank of each combination table the driver searches
        for this CNF (literal choice; process and chain choice too when
        singular) in product order, one CPDHB scan per rank, and check
        that the search stops at the same rank with the same selection.
        Returns the walk's verdict; any divergence raises."""
        from repro.detection.singular_cnf import (
            chain_choice_table,
            literal_choice_table,
            process_choice_table,
            search_combinations,
        )

        cnf = as_cnf(pred)
        tables = [literal_choice_table(comp, cnf)]
        if cnf.is_singular():
            tables.append(process_choice_table(comp, cnf))
            tables.append(chain_choice_table(comp, cnf))
        verdicts = set()
        for table in tables:
            rank, selection = rank_walk(comp, table)
            found = search_combinations(comp, table)
            _check(
                (found.rank, found.selection) == (rank, selection),
                f"search stopped at rank {found.rank} with "
                f"{found.selection}, the walk at rank {rank} with "
                f"{selection}",
            )
            verdicts.add(selection is not None)
        _check(len(verdicts) == 1, "combination tables disagree")
        return verdicts.pop()

    for engine in [
        EngineSpec("cpdhb", P, run_cpdhb),
        EngineSpec("slice", P, run_slice),
        EngineSpec(
            "index-roundtrip",
            P,
            run_index_roundtrip,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "literal-choice",
            P,
            lambda c, p: detect_cnf_by_literal_choice(c, as_cnf(p)).holds,
            applies=_has_cnf_view,
        ),
        EngineSpec(
            "chain-choice",
            P,
            lambda c, p: detect_by_chain_choice(c, as_cnf(p)).holds,
            applies=_has_cnf_view,
        ),
        EngineSpec(
            "process-choice",
            P,
            lambda c, p: detect_by_process_choice(c, as_cnf(p)).holds,
            applies=_has_cnf_view,
        ),
        EngineSpec(
            "rank-walk",
            P,
            run_rank_walk,
            applies=_has_cnf_view,
        ),
        EngineSpec(
            "enumeration",
            P,
            lambda c, p: possibly_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "sat",
            P,
            lambda c, p: possibly_via_sat(c, as_cnf(p)) is not None,
            max_events=ORACLE_MAX_EVENTS,
            applies=_has_cnf_view,
        ),
        EngineSpec(
            "brute",
            P,
            oracle_possibly,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-enum",
            P,
            run_sliced_possibly,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec("anchors", D, run_anchors),
        EngineSpec(
            "lattice",
            D,
            lambda c, p: definitely_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-lattice",
            D,
            run_sliced_definitely,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute-runs",
            D,
            oracle_definitely,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
    ]:
        registry.register_engine("conjunctive", engine)

    # -- singular k-CNF (k >= 2) ----------------------------------------
    def is_singular_cnf(pred: GlobalPredicate) -> bool:
        return (
            isinstance(pred, CNFPredicate)
            and pred.is_singular()
            and not pred.is_conjunctive()
        )

    registry.register_class("singular-cnf", is_singular_cnf)
    for engine in [
        EngineSpec(
            "auto", P, lambda c, p: detect_singular(c, p, "auto").holds
        ),
        EngineSpec(
            "chain-choice",
            P,
            lambda c, p: detect_by_chain_choice(c, p).holds,
        ),
        EngineSpec(
            "process-choice",
            P,
            lambda c, p: detect_by_process_choice(c, p).holds,
        ),
        EngineSpec("rank-walk", P, run_rank_walk),
        EngineSpec(
            "literal-choice",
            P,
            lambda c, p: detect_cnf_by_literal_choice(c, p).holds,
        ),
        EngineSpec(
            "enumeration",
            P,
            lambda c, p: possibly_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "sat",
            P,
            lambda c, p: possibly_via_sat(c, p) is not None,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute",
            P,
            oracle_possibly,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-enum",
            P,
            run_sliced_possibly,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "lattice",
            D,
            lambda c, p: definitely_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-lattice",
            D,
            run_sliced_definitely,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute-runs",
            D,
            oracle_definitely,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
    ]:
        registry.register_engine("singular-cnf", engine)

    # -- general (non-singular) CNF -------------------------------------
    registry.register_class(
        "general-cnf", lambda p: isinstance(p, CNFPredicate)
    )
    for engine in [
        EngineSpec(
            "literal-choice",
            P,
            lambda c, p: detect_cnf_by_literal_choice(c, p).holds,
        ),
        EngineSpec("rank-walk", P, run_rank_walk),
        EngineSpec(
            "enumeration",
            P,
            lambda c, p: possibly_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "sat",
            P,
            lambda c, p: possibly_via_sat(c, p) is not None,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-enum",
            P,
            run_sliced_possibly,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute",
            P,
            oracle_possibly,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "lattice",
            D,
            lambda c, p: definitely_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-lattice",
            D,
            run_sliced_definitely,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute-runs",
            D,
            oracle_definitely,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
    ]:
        registry.register_engine("general-cnf", engine)

    # -- relational sums ------------------------------------------------
    registry.register_class(
        "relational-sum", lambda p: isinstance(p, RelationalSumPredicate)
    )
    for engine in [
        EngineSpec(
            "sum-dispatch", P, lambda c, p: possibly_sum(c, p).holds
        ),
        EngineSpec(
            "sum-exact",
            P,
            lambda c, p: possibly_sum_eq_exact(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
            applies=_is_sum_eq,
        ),
        EngineSpec(
            "enumeration",
            P,
            lambda c, p: possibly_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute",
            P,
            oracle_possibly,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-enum",
            P,
            run_sliced_possibly,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "sum-definitely", D, lambda c, p: definitely_sum(c, p).holds
        ),
        EngineSpec(
            "lattice",
            D,
            lambda c, p: definitely_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-lattice",
            D,
            run_sliced_definitely,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute-runs",
            D,
            oracle_definitely,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
    ]:
        registry.register_engine("relational-sum", engine)

    # -- symmetric predicates -------------------------------------------
    registry.register_class(
        "symmetric", lambda p: isinstance(p, SymmetricPredicate)
    )
    for engine in [
        EngineSpec(
            "count-algorithm", P, lambda c, p: possibly_symmetric(c, p).holds
        ),
        EngineSpec(
            "enumeration",
            P,
            lambda c, p: possibly_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute",
            P,
            oracle_possibly,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "count-definitely",
            D,
            lambda c, p: definitely_symmetric(c, p).holds,
        ),
        EngineSpec(
            "lattice",
            D,
            lambda c, p: definitely_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-lattice",
            D,
            run_sliced_definitely,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute-runs",
            D,
            oracle_definitely,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
    ]:
        registry.register_engine("symmetric", engine)

    # -- classifier-dispatched opaque variants --------------------------
    def make_classify(modality: Modality) -> EngineFn:
        """Opaque-wrapped variant of every structured family: render the
        predicate as Python source, wrap it in a ``FunctionPredicate``,
        and let ``detect(..., infer=True)`` recover the class statically.
        Checks the classifier actually engaged (``classify:`` algorithm
        prefix), verdict parity against the directly dispatched engine,
        and witness validity.  A broken parity raises, which the fuzzer
        records as a crash finding."""

        def run(comp: Computation, pred: GlobalPredicate) -> bool:
            from repro.analysis.classify import opaquify
            from repro.detection import detect

            opaque = opaquify(pred)
            inferred = detect(comp, opaque, modality)
            _check(
                inferred.algorithm.startswith("classify:"),
                f"classifier fell back to {inferred.algorithm!r} on "
                f"{pred.description()}",
            )
            direct = detect(comp, pred, modality, infer=False)
            _check(
                inferred.holds == direct.holds,
                f"verdict mismatch: classified={inferred.holds} "
                f"direct={direct.holds}",
            )
            witness = inferred.witness
            if inferred.holds and witness is not None:
                _check(
                    witness.is_consistent() and pred.evaluate(witness),
                    "classified witness fails the original predicate",
                )
            return inferred.holds

        return run

    classify_engines = [
        EngineSpec(
            "classify-opaque", P, make_classify(P), applies=_opaquifiable
        ),
        EngineSpec(
            "classify-opaque", D, make_classify(D), applies=_opaquifiable
        ),
    ]
    for class_name in (
        "conjunctive",
        "singular-cnf",
        "general-cnf",
        "relational-sum",
        "symmetric",
    ):
        for engine in classify_engines:
            registry.register_engine(class_name, engine)

    return registry
