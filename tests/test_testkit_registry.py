"""The oracle registry: classification, rosters, and view adapters."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.computation import initial_cut
from repro.detection import DetectionResult
from repro.predicates import (
    CNFPredicate,
    Clause,
    Literal,
    Modality,
    SymmetricPredicate,
    conjunctive,
    conjunctive_view,
    local,
    sum_predicate,
)
from repro.testkit import (
    EngineSpec,
    OracleRegistry,
    as_cnf,
    default_registry,
)
from repro.trace import BoolVar, random_computation

P = Modality.POSSIBLY
D = Modality.DEFINITELY


def small_comp(n=2, events=2, seed=0):
    return random_computation(
        n, events, 0.5, seed=seed, variables=[BoolVar("x")]
    )


CONJ = conjunctive(local(0, "x"), local(1, "x"))
SINGULAR = CNFPredicate(
    [
        Clause([Literal(0, "x"), Literal(1, "x")]),
        Clause([Literal(2, "x"), Literal(3, "x")]),
    ]
)
GENERAL = CNFPredicate(
    [
        Clause([Literal(0, "x"), Literal(1, "x")]),
        Clause([Literal(0, "x", True), Literal(2, "x")]),
    ]
)
SUM = sum_predicate("v", "==", 1)
SYM = SymmetricPredicate("x", 2, [2])


class TestClassification:
    def test_each_shipped_class_is_recognized(self):
        registry = default_registry()
        assert registry.classify(CONJ) == "conjunctive"
        assert registry.classify(SINGULAR) == "singular-cnf"
        assert registry.classify(GENERAL) == "general-cnf"
        assert registry.classify(SUM) == "relational-sum"
        assert registry.classify(SYM) == "symmetric"

    def test_singular_1cnf_classifies_as_conjunctive(self):
        # A 1-CNF *is* conjunctive; first-match order must send it to the
        # richer conjunctive roster (CPDHB, slice, anchors...).
        pred = CNFPredicate([Clause([Literal(0, "x")]), Clause([Literal(1, "x")])])
        assert default_registry().classify(pred) == "conjunctive"

    def test_unknown_predicate_classifies_as_none(self):
        class Weird:
            pass

        assert default_registry().classify(Weird()) is None
        assert default_registry().engines_for(Weird(), small_comp()) == []


class TestRosters:
    def test_every_class_has_exactly_one_possibly_oracle(self):
        registry = default_registry()
        for name in registry.class_names:
            spec = registry.get_class(name)
            oracles = [
                e for e in spec.engines_for(P) if e.is_oracle
            ]
            assert len(oracles) == 1, f"{name}: {oracles}"
            assert oracles[0].name == "brute"

    def test_oracle_for_matches_roster(self):
        registry = default_registry()
        oracle = registry.oracle_for(CONJ, P)
        assert oracle is not None and oracle.is_oracle
        oracle_d = registry.oracle_for(CONJ, D)
        assert oracle_d is not None and oracle_d.name == "brute-runs"

    def test_max_events_gates_exponential_engines(self):
        registry = default_registry()
        big = random_computation(3, 10, 0.4, seed=1, variables=[BoolVar("x")])
        names = {
            e.name
            for e in registry.engines_for(
                conjunctive(*(local(p, "x") for p in range(3))), big
            )
        }
        assert "brute" not in names  # 30 events > ORACLE_MAX_EVENTS
        assert "cpdhb" in names  # polynomial engines stay

    def test_include_extra_appends_without_mutating(self):
        registry = default_registry()
        extra = EngineSpec("extra-engine", P, lambda c, p: True)
        comp = small_comp()
        with_extra = registry.engines_for(CONJ, comp, include_extra=[extra])
        without = registry.engines_for(CONJ, comp)
        assert "extra-engine" in {e.name for e in with_extra}
        assert "extra-engine" not in {e.name for e in without}

    def test_duplicate_class_rejected(self):
        registry = OracleRegistry()
        registry.register_class("c", lambda p: True)
        with pytest.raises(ValueError):
            registry.register_class("c", lambda p: True)

    def test_second_oracle_rejected(self):
        registry = OracleRegistry()
        registry.register_class("c", lambda p: True)
        registry.register_engine(
            "c", EngineSpec("a", P, lambda c, p: True, is_oracle=True)
        )
        with pytest.raises(ValueError):
            registry.register_engine(
                "c", EngineSpec("b", P, lambda c, p: True, is_oracle=True)
            )

    def test_same_name_engine_replaces(self):
        registry = OracleRegistry()
        registry.register_class("c", lambda p: True)
        registry.register_engine("c", EngineSpec("a", P, lambda c, p: True))
        registry.register_engine("c", EngineSpec("a", P, lambda c, p: False))
        spec = registry.get_class("c")
        assert len(spec.engines) == 1
        assert spec.engines[0].run(None, None) is False


def _matrix_rows():
    """``{class: (possibly, definitely)}`` from docs/TESTING.md's table;
    each side a list of ``(engine, is_oracle)``."""
    doc = Path(__file__).resolve().parents[1] / "docs" / "TESTING.md"
    rows = {}
    for line in doc.read_text().splitlines():
        match = re.fullmatch(r"\| `([\w-]+)` \|[^|]*\|([^|]*)\|([^|]*)\|", line)
        if match is None:
            continue

        def engines(cell):
            cell = cell.strip()
            if cell == "—":
                return []
            out = []
            for item in cell.split(", "):
                item = re.sub(r" \(.*\)$", "", item)
                bold = item.startswith("**")
                out.append((item.strip("*"), bold))
            return out

        rows[match.group(1)] = (engines(match.group(2)), engines(match.group(3)))
    return rows


def test_testing_doc_matrix_matches_registry():
    registry = default_registry()
    rows = _matrix_rows()
    assert list(rows) == registry.class_names
    for name in registry.class_names:
        spec = registry.get_class(name)
        for modality, listed in zip((P, D), rows[name]):
            actual = [(e.name, e.is_oracle) for e in spec.engines_for(modality)]
            assert listed == actual, f"{name} {modality.value}"


class TestAdapters:
    def test_as_cnf_of_conjunctive(self):
        cnf = as_cnf(CONJ)
        assert isinstance(cnf, CNFPredicate)
        assert all(len(cl) == 1 for cl in cnf.clauses)

    def test_as_cnf_identity_on_cnf(self):
        assert as_cnf(SINGULAR) is SINGULAR

    def test_conjunctive_view_of_1cnf(self):
        pred = CNFPredicate(
            [Clause([Literal(0, "x")]), Clause([Literal(1, "x", True)])]
        )
        conj = conjunctive_view(pred)
        assert conj is not None
        assert [(c.process, c.negated) for c in conj.conjuncts] == [
            (0, False),
            (1, True),
        ]

    def test_conjunctive_view_of_conjunctive_and_local(self):
        assert conjunctive_view(CONJ) is CONJ
        lone = local(1, "x")
        assert conjunctive_view(lone).conjuncts == (lone,)
        assert default_registry().classify(lone) == "conjunctive"

    def test_conjunctive_view_rejects_wide_clauses(self):
        assert conjunctive_view(SINGULAR) is None
        assert conjunctive_view(SUM) is None
        assert as_cnf(SUM) is None

    def test_adapters_preserve_verdicts(self):
        # The adapted views must be the *same* predicate semantically.
        comp = small_comp(2, 3, seed=3)
        cnf = as_cnf(CONJ)
        from repro.testkit import brute_possibly

        assert (brute_possibly(comp, CONJ.evaluate) is None) == (
            brute_possibly(comp, cnf.evaluate) is None
        )


class TestRefereeChecks:
    """The registry's cross-checks raise explicitly instead of asserting,
    so they survive ``python -O`` (CI runs this file under -O)."""

    @staticmethod
    def engine(class_name: str, name: str, modality: Modality) -> EngineSpec:
        (spec,) = [
            e
            for e in default_registry().get_class(class_name).engines
            if e.name == name and e.modality is modality
        ]
        return spec

    def test_bad_witness_raises(self, figure2, monkeypatch):
        import repro.detection
        from repro.detection import cooper_marzullo

        pred = conjunctive(local(0, "x"), local(3, "x"))
        bad = initial_cut(figure2)  # consistent, but x is false there
        assert not pred.evaluate(bad)

        slice_enum = self.engine("conjunctive", "slice-enum", P)
        monkeypatch.setattr(
            cooper_marzullo,
            "possibly_enumerate",
            lambda *args, **kwargs: DetectionResult(
                holds=True, witness=bad, algorithm="cooper-marzullo"
            ),
        )
        with pytest.raises(AssertionError, match="invalid sliced witness"):
            slice_enum.run(figure2, pred)
        monkeypatch.undo()

        classify = self.engine("conjunctive", "classify-opaque", P)
        monkeypatch.setattr(
            repro.detection,
            "detect",
            lambda *args, **kwargs: DetectionResult(
                holds=True, witness=bad, algorithm="classify:planted"
            ),
        )
        with pytest.raises(
            AssertionError, match="witness fails the original predicate"
        ):
            classify.run(figure2, pred)
