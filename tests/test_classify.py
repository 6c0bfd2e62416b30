"""Tests for the static predicate classifier (`repro.analysis.classify`).

Covers the whole certificate pipeline: source resolution (lambdas, defs,
``evaluate`` overrides, ``__repro_source__``-carrying compiled callables),
fragment parsing with precise :class:`Unclassifiable` rejections, rewrite
classes per predicate family, differential validation (including a lying
callable whose claimed source diverges from its behavior), the weak-keyed
cache with its ``analysis.classify.*`` counters, dispatch integration
through :func:`repro.detection.detect`, and the ``repro classify`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.analysis.classify import (
    Classification,
    Unclassifiable,
    cached_approximation,
    classification_for,
    classify,
    clear_cache,
    opaquify,
    predicate_source,
    target_function,
)
from repro.analysis.classify.validate import sample_cuts, validate_certificate
from repro.detection import detect, is_stable
from repro.predicates import (
    CNFPredicate,
    Clause,
    ConjunctivePredicate,
    FunctionPredicate,
    GlobalPredicate,
    InequityClause,
    InequityPredicate,
    Literal,
    Modality,
    PredicateError,
    local_fn,
    sum_predicate,
    symmetric_from_counts,
)
from repro.trace import BoolVar, random_computation

P = Modality.POSSIBLY
D = Modality.DEFINITELY


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def comp():
    return random_computation(
        3, 4, 0.4, seed=5, variables=[BoolVar("x"), BoolVar("y")]
    )


def compiled(source):
    """A callable carrying its own source (the opaquify/CLI convention)."""
    fn = eval(compile(source, "<test>", "eval"))  # noqa: S307
    fn.__repro_source__ = source
    return fn


def opaque(source, name="opaque-test"):
    return FunctionPredicate(compiled(source), name)


# ----------------------------------------------------------------------
# Source resolution
# ----------------------------------------------------------------------
class TestSourceResolution:
    def test_lambda_defined_in_a_file_is_analyzable(self):
        certificate = classify(lambda cut: cut.value(0, "x"))
        assert certificate.rewrite_class() == "local"

    def test_def_with_docstring_is_analyzable(self):
        def predicate(cut):
            """Both processes hold x."""
            return cut.value(0, "x") and cut.value(1, "x")

        certificate = classify(predicate)
        assert certificate.rewrite_class() == "conjunctive"

    def test_evaluate_override_is_analyzable(self):
        class Mutex(GlobalPredicate):
            def evaluate(self, cut):
                return cut.value(0, "cs") and cut.value(1, "cs")

        certificate = classify(Mutex())
        assert certificate.rewrite_class() == "conjunctive"
        assert target_function(Mutex()) is Mutex.__dict__["evaluate"]

    def test_structured_predicate_evaluate_reads_self(self):
        # ConjunctivePredicate.evaluate loops over self.conjuncts; its
        # *source* is not in the fragment.  Dispatch never sends
        # structured predicates here, but classify() must reject cleanly.
        pred = ConjunctivePredicate([Literal(0, "x")])
        with pytest.raises(Unclassifiable):
            classify(pred)

    def test_repro_source_attribute_beats_getsource(self):
        certificate = classify(compiled('lambda cut: cut.value(2, "y")'))
        assert certificate.read_sets == {2: frozenset({"y"})}

    def test_sourceless_callable_is_unclassifiable(self):
        fn = eval(compile("lambda cut: True", "<nowhere>", "eval"))
        with pytest.raises(Unclassifiable, match="source unavailable"):
            classify(fn)

    def test_multi_statement_body_is_unclassifiable(self):
        def predicate(cut):
            x = cut.value(0, "x")
            return x

        with pytest.raises(
            Unclassifiable, match="single return expression"
        ):
            classify(predicate)

    def test_two_cut_parameters_are_unclassifiable(self):
        with pytest.raises(Unclassifiable, match="single cut parameter"):
            classify(compiled("lambda cut, other: True"))


# ----------------------------------------------------------------------
# Fragment parsing and rewrite classes
# ----------------------------------------------------------------------
class TestRewriteClasses:
    def test_conjunctive(self):
        certificate = classify(
            lambda cut: cut.value(0, "x") and not cut.value(1, "x")
        )
        assert certificate.rewrite_class() == "conjunctive"
        assert certificate.conjunctive_view
        assert certificate.read_sets == {
            0: frozenset({"x"}),
            1: frozenset({"x"}),
        }
        assert certificate.engine_hint(P) == "garg-waldecker"
        assert certificate.engine_hint(D) == "definitely-conjunctive"

    def test_process_local(self):
        certificate = classify(lambda cut: cut.value(1, "x"))
        assert certificate.rewrite_class() == "local"
        assert certificate.process_local == 1

    # Multi-line lambdas are written as compiled sources here:
    # inspect.getsource truncates a lambda to its first syntactically
    # complete line, and a truncated body would silently classify as a
    # smaller predicate (differential validation catches that at
    # dispatch time; see test_multiline_lambda_is_never_mistrusted).
    def test_singular_cnf(self):
        certificate = classify(
            compiled(
                'lambda cut: (cut.value(0, "x") or cut.value(1, "x")) '
                'and cut.value(2, "x")'
            )
        )
        assert certificate.rewrite_class() == "singular-cnf"
        assert certificate.engine_hint(P) == "singular-cnf"

    def test_general_cnf(self):
        certificate = classify(
            compiled(
                'lambda cut: (cut.value(0, "x") or cut.value(1, "x")) '
                'and (cut.value(0, "y") or cut.value(2, "x"))'
            )
        )
        assert certificate.rewrite_class() == "general-cnf"
        assert certificate.engine_hint(P) == "cnf-literal-choice"

    def test_relational_sum(self):
        certificate = classify(lambda cut: cut.variable_sum("tokens") <= 1)
        assert certificate.rewrite_class() == "relational-sum"
        assert certificate.global_reads == frozenset({"tokens"})

    def test_symmetric_needs_process_count(self):
        certificate = classify(
            lambda cut: sum(map(bool, cut.values("x"))) in (1, 2)
        )
        # Without a process count the true-count atom cannot become a
        # SymmetricPredicate: nothing actionable, but no hard rejection.
        assert certificate.rewrite is None
        assert not certificate.actionable

    def test_symmetric_with_process_count(self):
        certificate = classify(
            lambda cut: sum(map(bool, cut.values("x"))) in (1, 2),
            num_processes=3,
        )
        assert certificate.rewrite_class() == "symmetric"
        assert certificate.num_processes == 3
        assert certificate.engine_hint(P) == "symmetric"

    def test_monotone_size_atom(self):
        certificate = classify(lambda cut: cut.size() >= 3)
        assert certificate.monotone
        assert certificate.engine_hint(P) == "stable-final-cut"

    def test_channel_atom(self):
        certificate = classify(
            lambda cut: len(cut.crossing_messages()) == 0
        )
        assert certificate.touches_channels
        assert not certificate.monotone

    def test_mixed_body_yields_approximation_only(self):
        certificate = classify(
            lambda cut: cut.value(0, "x") and cut.variable_sum("y") >= 1
        )
        assert certificate.rewrite is None
        assert certificate.approximation is not None
        assert not certificate.approximation_exact
        assert certificate.actionable

    def test_exact_approximation_is_flagged(self):
        certificate = classify(
            lambda cut: cut.value(0, "x") and cut.value(1, "y")
        )
        assert certificate.approximation is not None
        assert certificate.approximation_exact


class TestUnclassifiableReasons:
    def test_closure_read(self):
        threshold = 2
        with pytest.raises(Unclassifiable) as info:
            classify(lambda cut: cut.variable_sum("x") >= threshold)
        assert "not a recognized cut read" in info.value.reason
        assert info.value.line is not None

    def test_unknown_cut_method(self):
        with pytest.raises(Unclassifiable) as info:
            classify(compiled("lambda cut: cut.events_before()"))
        assert "outside the supported fragment" in info.value.reason

    def test_len_of_frontier(self):
        with pytest.raises(Unclassifiable) as info:
            classify(compiled("lambda cut: len(cut.frontier)"))
        assert "crossing_messages" in info.value.reason

    def test_message_carries_line(self):
        with pytest.raises(Unclassifiable, match="line 1"):
            classify(compiled("lambda cut: cut.events_before()"))


# ----------------------------------------------------------------------
# opaquify / predicate_source round trip
# ----------------------------------------------------------------------
class TestOpaquify:
    ROUNDTRIP = [
        ConjunctivePredicate(
            [Literal(0, "x"), Literal(1, "x", negated=True)]
        ),
        CNFPredicate(
            [
                Clause([Literal(0, "x"), Literal(1, "x")]),
                Clause([Literal(2, "y")]),
            ]
        ),
        sum_predicate("x", ">=", 1),
        symmetric_from_counts("x", 3, [1, 2]),
    ]

    @pytest.mark.parametrize(
        "predicate", ROUNDTRIP, ids=lambda p: type(p).__name__
    )
    def test_roundtrip_evaluates_identically(self, predicate, comp):
        wrapped = opaquify(predicate)
        assert isinstance(wrapped, FunctionPredicate)
        for cut in sample_cuts(comp):
            assert wrapped.evaluate(cut) == predicate.evaluate(cut)

    @pytest.mark.parametrize(
        "predicate", ROUNDTRIP, ids=lambda p: type(p).__name__
    )
    def test_roundtrip_reclassifies(self, predicate, comp):
        wrapped = opaquify(predicate)
        certificate = classify(
            wrapped, num_processes=comp.num_processes
        )
        assert certificate.rewrite is not None
        for cut in sample_cuts(comp):
            assert certificate.rewrite.evaluate(cut) == predicate.evaluate(
                cut
            )

    def test_non_literal_conjunct_has_no_source(self):
        inner = ConjunctivePredicate(
            [local_fn(0, lambda event: True, "anything")]
        )
        with pytest.raises(PredicateError, match="non-literal conjunct"):
            predicate_source(inner)

    def test_inequity_has_no_source(self):
        pred = InequityPredicate([InequityClause(0, 1, "x")])
        with pytest.raises(PredicateError, match="cannot opaquify"):
            predicate_source(pred)


# ----------------------------------------------------------------------
# Differential validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_honest_certificate_validates(self, comp):
        predicate = opaque('lambda cut: cut.value(0, "x")')
        certificate = classify(predicate)
        assert validate_certificate(comp, predicate, certificate)

    def test_lying_source_is_rejected(self, comp):
        # The callable claims to read x@0 but always answers False: the
        # parsed certificate must fail differential validation.
        liar = eval(compile("lambda cut: False", "<test>", "eval"))
        liar.__repro_source__ = 'lambda cut: cut.value(0, "x")'
        predicate = FunctionPredicate(liar, "liar")
        certificate = classify(predicate)
        assert not validate_certificate(comp, predicate, certificate)
        assert classification_for(predicate, comp) is None

    def test_raising_callable_is_rejected(self, comp):
        bad = eval(compile("lambda cut: 1 // 0", "<test>", "eval"))
        bad.__repro_source__ = 'lambda cut: cut.value(0, "x")'
        predicate = FunctionPredicate(bad, "raiser")
        certificate = classify(predicate)
        assert not validate_certificate(comp, predicate, certificate)

    def test_multiline_lambda_is_never_mistrusted(self, comp):
        # inspect.getsource truncates this lambda to its first line, so
        # the parsed body may not be what the callable computes; the
        # cache layer must validate before trusting the certificate.
        predicate = FunctionPredicate(
            lambda cut: (cut.value(0, "x") or cut.value(1, "x"))
            and (cut.value(0, "y") or cut.value(2, "x")),
            "multiline",
        )
        certificate = classification_for(predicate, comp)
        if certificate is not None:
            assert validate_certificate(comp, predicate, certificate)

    def test_sample_cuts_exhaustive_on_small_computations(self, comp):
        lengths = [
            len(comp.events_of(p)) for p in range(comp.num_processes)
        ]
        volume = 1
        for length in lengths:
            volume *= length
        cuts = list(sample_cuts(comp))
        assert volume <= 512
        assert len(cuts) == volume


# ----------------------------------------------------------------------
# The weak-keyed cache and its counters
# ----------------------------------------------------------------------
class TestCache:
    def counters(self, capture):
        return {
            key.rsplit(".", 1)[-1]: value
            for key, value in capture.registry.snapshot()[
                "counters"
            ].items()
            if key.startswith("analysis.classify.")
        }

    def test_hit_after_miss(self, comp):
        predicate = opaque('lambda cut: cut.value(0, "x")')
        with obs.Capture() as capture:
            first = classification_for(predicate, comp)
            second = classification_for(predicate, comp)
        assert isinstance(first, Classification)
        assert first.validated
        assert second is first
        assert self.counters(capture) == {"hits": 1, "misses": 1}

    def test_negative_caching(self, comp):
        predicate = opaque("lambda cut: cut.events_before()")
        with obs.Capture() as capture:
            assert classification_for(predicate, comp) is None
            assert classification_for(predicate, comp) is None
        assert self.counters(capture) == {
            "hits": 1,
            "misses": 1,
            "rejects": 1,
        }

    def test_shared_function_shares_the_entry(self, comp):
        fn = compiled('lambda cut: cut.value(0, "x")')
        first = FunctionPredicate(fn, "a")
        second = FunctionPredicate(fn, "b")
        with obs.Capture() as capture:
            classification_for(first, comp)
            classification_for(second, comp)
        assert self.counters(capture) == {"hits": 1, "misses": 1}

    def test_cached_approximation_surface(self, comp):
        predicate = opaque(
            'lambda cut: cut.value(0, "x") and cut.value(1, "y")'
        )
        result = cached_approximation(predicate, comp)
        assert result is not None
        approximation, exact = result
        assert isinstance(approximation, ConjunctivePredicate)
        assert exact

    def test_clear_cache_forces_reclassification(self, comp):
        predicate = opaque('lambda cut: cut.value(0, "x")')
        classification_for(predicate, comp)
        clear_cache()
        with obs.Capture() as capture:
            classification_for(predicate, comp)
        assert self.counters(capture) == {"misses": 1}


# ----------------------------------------------------------------------
# detect() integration
# ----------------------------------------------------------------------
class TestDetectIntegration:
    def test_opaque_conjunctive_dispatches_fast(self, comp):
        structured = ConjunctivePredicate(
            [Literal(p, "x") for p in range(3)]
        )
        wrapped = opaquify(structured)
        inferred = detect(comp, wrapped, P)
        direct = detect(comp, structured, P, infer=False)
        assert inferred.algorithm == "classify:" + direct.algorithm
        assert inferred.holds == direct.holds
        if inferred.holds:
            assert inferred.witness.is_consistent()
            assert structured.evaluate(inferred.witness)

    def test_definitely_modality_parity(self, comp):
        structured = ConjunctivePredicate(
            [Literal(0, "x"), Literal(1, "y")]
        )
        wrapped = opaquify(structured)
        inferred = detect(comp, wrapped, D)
        direct = detect(comp, structured, D, infer=False)
        assert inferred.algorithm.startswith("classify:")
        assert inferred.holds == direct.holds

    def test_monotone_body_uses_stable_engine(self, comp):
        predicate = opaque("lambda cut: cut.size() >= 6")
        result = detect(comp, predicate)
        assert result.algorithm == "classify:stable-final-cut"
        assert is_stable(comp, predicate)
        baseline = detect(comp, predicate, infer=False)
        assert result.holds == baseline.holds

    def test_unclassifiable_falls_back_cleanly(self, comp):
        threshold = 1
        predicate = FunctionPredicate(
            lambda cut: cut.variable_sum("x") >= threshold, "closure"
        )
        result = detect(comp, predicate)
        assert not result.algorithm.startswith("classify:")
        expected = detect(
            comp, sum_predicate("x", ">=", 1), infer=False
        )
        assert result.holds == expected.holds

    def test_infer_false_keeps_enumeration(self, comp):
        wrapped = opaquify(
            ConjunctivePredicate([Literal(0, "x"), Literal(1, "x")])
        )
        result = detect(comp, wrapped, P, infer=False)
        assert not result.algorithm.startswith("classify:")

    def test_lying_predicate_never_dispatches_fast(self, comp):
        liar = eval(compile("lambda cut: False", "<test>", "eval"))
        liar.__repro_source__ = 'lambda cut: cut.value(0, "x")'
        result = detect(comp, FunctionPredicate(liar, "liar"))
        assert not result.algorithm.startswith("classify:")
        assert not result.holds

    @staticmethod
    def assert_answered_without_certificate(comp, modality):
        """Build a body that equals ``x@0 & x@1`` except at the witness
        its rewrite's engine returns; detect() must check that witness
        against the body and answer as with ``infer=False``."""
        claimed = "lambda cut: cut.value(0, 'x') and cut.value(1, 'x')"
        rewrite_witness = detect(
            comp, opaque(claimed), modality
        ).witness.frontier
        body = eval(  # noqa: S307
            compile(
                "lambda cut: cut.value(0, 'x') and cut.value(1, 'x') "
                f"and cut.frontier != {rewrite_witness!r}",
                "<test>",
                "eval",
            )
        )
        body.__repro_source__ = claimed
        liar = FunctionPredicate(body, "liar")
        with obs.Capture() as capture:
            result = detect(comp, liar, modality)
        plain = detect(comp, liar, modality, infer=False)
        assert (result.holds, result.algorithm) == (
            plain.holds,
            plain.algorithm,
        )
        assert not result.algorithm.startswith("classify:")
        assert result.witness == plain.witness
        if result.witness is not None:
            assert liar.evaluate(result.witness)
        counters = capture.registry.snapshot()["counters"]
        assert counters["detect.witness_mismatch"] == 1

        def classify_spans(spans):
            for span in spans:
                if span.name == "engine.classify":
                    yield span
                yield from classify_spans(span.children)

        (classify_span,) = classify_spans(capture.roots)
        assert classify_span.attributes["outcome"] == "witness-mismatch"
        return result

    def test_witness_failing_the_callable_is_not_returned(self):
        # The sampled validation misses the one cut where the body and
        # its claimed source differ: the CPDHB witness (2, 2, 1).
        comp = random_computation(
            3, 12, 0.3, seed=4, variables=[BoolVar("x", density=0.5)]
        )
        result = self.assert_answered_without_certificate(comp, P)
        assert result.holds
        assert result.algorithm == "cooper-marzullo"
        assert result.witness.frontier == (2, 2, 2)

    def test_definitely_witness_failing_the_callable_is_not_returned(
        self, monkeypatch
    ):
        # definitely's witnesses are corner cuts, which validation always
        # samples; let a certificate through unvalidated to reach the check.
        import repro.analysis.classify.cache as cache

        monkeypatch.setattr(
            cache, "validate_certificate", lambda *args: True
        )
        comp = random_computation(
            3, 12, 0.3, seed=4, variables=[BoolVar("x", density=0.5)]
        )
        result = self.assert_answered_without_certificate(comp, D)
        assert result.algorithm == "cooper-marzullo"

    def test_classify_span_is_emitted(self, comp):
        wrapped = opaquify(
            ConjunctivePredicate([Literal(0, "x"), Literal(1, "x")])
        )
        with obs.Capture() as capture:
            detect(comp, wrapped, P)

        def names(spans):
            for span in spans:
                yield span.name
                yield from names(span.children)

        assert "engine.classify" in set(names(capture.roots))


# ----------------------------------------------------------------------
# CLI: repro classify / detect --no-infer
# ----------------------------------------------------------------------
class TestClassifyCLI:
    @pytest.fixture
    def trace_path(self, tmp_path, comp):
        from repro.trace import dump_computation

        path = tmp_path / "trace.json"
        dump_computation(comp, path)
        return str(path)

    def run(self, capsys, *argv):
        from repro.cli import main

        code = main(["--no-runs-ledger", *argv])
        out = capsys.readouterr().out
        return code, json.loads(out) if out.lstrip().startswith("{") else out

    def test_certificate_payload(self, trace_path, capsys):
        code, payload = self.run(
            capsys,
            "classify",
            trace_path,
            'lambda cut: cut.value(0, "x") and cut.value(1, "x")',
        )
        assert code == 0
        assert payload["classified"] is True
        assert payload["engine"] == "garg-waldecker"
        certificate = payload["certificate"]
        assert certificate["rewrite_class"] == "conjunctive"
        assert certificate["validated"] is True
        assert certificate["read_sets"] == {"0": ["x"], "1": ["x"]}

    def test_bare_body_is_wrapped(self, trace_path, capsys):
        code, payload = self.run(
            capsys, "classify", trace_path, 'cut.value(0, "x")'
        )
        assert code == 0
        assert payload["certificate"]["rewrite_class"] == "local"

    def test_modality_changes_engine_hint(self, trace_path, capsys):
        code, payload = self.run(
            capsys,
            "classify",
            trace_path,
            'cut.value(0, "x") and cut.value(1, "x")',
            "--modality",
            "definitely",
        )
        assert code == 0
        assert payload["engine"] == "definitely-conjunctive"

    def test_unclassifiable_exits_one_with_reason(
        self, trace_path, capsys
    ):
        code, payload = self.run(
            capsys, "classify", trace_path, "cut.undefined()"
        )
        assert code == 1
        assert payload["classified"] is False
        assert "outside the supported fragment" in payload["reason"]
        assert payload["engine"] == "enumeration"

    def test_syntax_error_exits_two(self, trace_path, capsys):
        from repro.cli import main

        code = main(
            ["--no-runs-ledger", "classify", trace_path, "not ; python"]
        )
        assert code == 2

    def test_detect_no_infer_flag(self, trace_path, capsys):
        code, payload = self.run(
            capsys,
            "detect",
            trace_path,
            "x@0",
            "--no-infer",
        )
        assert code in (0, 1)
        assert not payload["algorithm"].startswith("classify:")
