"""Computation slicing (the follow-up line to the paper's algorithms)."""

from repro.slicing.dispatch import (
    SliceInfo,
    conjunctive_approximation,
    slice_info,
    sliced_definitely_enumerate,
    sliced_possibly_enumerate,
)
from repro.slicing.slice import ConjunctiveSlice

__all__ = [
    "ConjunctiveSlice",
    "SliceInfo",
    "conjunctive_approximation",
    "slice_info",
    "sliced_definitely_enumerate",
    "sliced_possibly_enumerate",
]
