"""Differential-testing kit (substrate S13): oracles, registry, fuzzing.

The correctness tooling behind "refactor fearlessly": the library's
verdict-producing layers (detection engines, SAT reductions, fast-path
variants, brute-force oracles) are enrolled in one
:class:`~repro.testkit.registry.OracleRegistry`; the differential fuzzer
(:mod:`repro.testkit.fuzz`) sweeps seeded random instances across every
registered engine and flags any split vote or crash; the shrinker
(:mod:`repro.testkit.shrink`) minimizes findings; and the corpus
(:mod:`repro.testkit.corpus`) commits them as replayable regression
tests.  A planted-bug engine (:mod:`repro.testkit.mutation`) keeps the
whole pipeline honest.

See ``docs/TESTING.md`` for the oracle matrix and the fuzz workflow, and
``repro fuzz --help`` for the CLI entry point.
"""

from repro.testkit.corpus import (
    CorpusCase,
    CorpusFormatError,
    ReplayResult,
    iter_corpus,
    load_case,
    predicate_from_dict,
    predicate_to_dict,
    replay_case,
    save_case,
)
from repro.testkit.fuzz import (
    FAMILY_NAMES,
    Finding,
    FuzzConfig,
    FuzzReport,
    InstanceLog,
    run_fuzz,
)
from repro.testkit.mutation import (
    PLANTED_ENGINE_NAME,
    buggy_detect_conjunctive,
    planted_engine,
)
from repro.testkit.oracles import (
    all_consistent_cuts,
    all_cuts,
    brute_definitely,
    brute_possibly,
    brute_runs,
    combination_at,
    rank_walk,
)
from repro.testkit.registry import (
    ClassSpec,
    EngineSpec,
    OracleRegistry,
    as_cnf,
    default_registry,
)
from repro.testkit.shrink import ShrinkResult, referenced_processes, shrink

__all__ = [
    "FAMILY_NAMES",
    "PLANTED_ENGINE_NAME",
    "ClassSpec",
    "CorpusCase",
    "CorpusFormatError",
    "EngineSpec",
    "Finding",
    "FuzzConfig",
    "FuzzReport",
    "InstanceLog",
    "OracleRegistry",
    "ReplayResult",
    "ShrinkResult",
    "all_consistent_cuts",
    "all_cuts",
    "as_cnf",
    "brute_definitely",
    "brute_possibly",
    "brute_runs",
    "buggy_detect_conjunctive",
    "combination_at",
    "default_registry",
    "iter_corpus",
    "load_case",
    "planted_engine",
    "predicate_from_dict",
    "predicate_to_dict",
    "rank_walk",
    "referenced_processes",
    "replay_case",
    "run_fuzz",
    "save_case",
    "shrink",
]
