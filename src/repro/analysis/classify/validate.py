"""Differential validation: the certificate's soundness witness.

A rewrite is only *provable* up to the fragment's semantics; the original
callable may still diverge (a truthy default, an exception on a missing
variable, arbitrary Python the parser mis-modelled).  Before dispatch
trusts a certificate, this module evaluates the original callable and the
rewrite side by side on a deterministic sample of the computation's cuts
— every frontier of small computations, corner cuts plus a seeded random
sample of large ones — and rejects the certificate on any disagreement.
The over-approximation is checked as an implication (no sampled cut may
satisfy the callable but escape the approximation).

Sampling is deterministic by construction: the RNG seed derives from the
computation's shape, never from wall clocks or global RNG state, so a
rejected certificate is rejected reproducibly.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterator, Sequence, Tuple

from repro.analysis.classify.certificate import Classification
from repro.analysis.classify.fragment import evaluate_node
from repro.computation import Computation, Cut
from repro.perf.causality import CausalityIndex
from repro.predicates.base import GlobalPredicate

__all__ = ["sample_cuts", "sample_frontiers", "validate_certificate"]

Frontier = Tuple[int, ...]

#: Exhaustively check computations whose frontier space is this small.
EXHAUSTIVE_VOLUME = 512

#: Random frontier samples drawn for larger computations.
SAMPLE_SIZE = 64


def _seed(lengths: Sequence[int]) -> int:
    seed = 0x9E3779B1
    for length in lengths:
        seed = (seed * 1000003 + length) & 0xFFFFFFFF
    return seed


def sample_frontiers(lengths: Tuple[int, ...]) -> Tuple[Frontier, ...]:
    """The frontiers :func:`sample_cuts` yields for a computation shape.

    ``lengths[p]`` counts the events of process ``p``, initial included.
    Every frontier when the volume is at most :data:`EXHAUSTIVE_VOLUME`;
    otherwise the bottom and top frontiers, then up to
    :data:`SAMPLE_SIZE` distinct seeded random draws.
    """
    volume = 1
    for length in lengths:
        volume *= length
        if volume > EXHAUSTIVE_VOLUME:
            break
    if volume <= EXHAUSTIVE_VOLUME:
        return tuple(
            itertools.product(*(range(1, length + 1) for length in lengths))
        )
    frontiers = [(1,) * len(lengths), tuple(lengths)]
    rng = random.Random(_seed(lengths))
    seen = set()
    for _ in range(SAMPLE_SIZE):
        frontier = tuple(rng.randint(1, length) for length in lengths)
        if frontier in seen:
            continue
        seen.add(frontier)
        frontiers.append(frontier)
    return tuple(frontiers)


def sample_cuts(computation: Computation) -> Iterator[Cut]:
    """Deterministic cut sample: exhaustive when small, seeded otherwise.

    Cuts need not be consistent — pointwise agreement on *all* cuts is a
    stronger witness than agreement on the consistent sublattice, and the
    fragment's reads are well-defined on any frontier.  The frontiers
    depend only on the computation's shape, so they are drawn once and
    kept on its :class:`~repro.perf.causality.CausalityIndex`.
    """
    index = CausalityIndex.of(computation)
    frontiers = index.validation_sample
    if frontiers is None:
        lengths = tuple(
            len(computation.events_of(p))
            for p in range(computation.num_processes)
        )
        frontiers = index.validation_sample = sample_frontiers(lengths)
    for frontier in frontiers:
        yield Cut(computation, frontier)


def _reference(certificate: Classification) -> Callable[[Cut], bool]:
    """What the certificate claims the callable computes."""
    rewrite = certificate.rewrite
    if rewrite is not None:
        return rewrite.evaluate
    return lambda cut: evaluate_node(certificate.tree, cut)


def validate_certificate(
    computation: Computation,
    predicate: GlobalPredicate,
    certificate: Classification,
) -> bool:
    """Differentially check a certificate against the original callable.

    Returns False — and the caller must then discard the certificate —
    when the rewrite (or, absent one, the parsed tree itself) disagrees
    with the callable on any sampled cut, when the over-approximation
    fails its implication, or when the callable raises where the
    certificate evaluates cleanly.
    """
    reference = _reference(certificate)
    approximation = certificate.approximation
    for cut in sample_cuts(computation):
        try:
            original = bool(predicate.evaluate(cut))
        except Exception:
            return False
        if original != bool(reference(cut)):
            return False
        if approximation is not None and original:
            if not approximation.evaluate(cut):
                return False
    return True
