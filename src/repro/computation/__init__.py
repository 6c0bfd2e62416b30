"""Computation poset, cuts, lattice and chain machinery (substrates S2–S4)."""

from repro.computation.builder import ComputationBuilder
from repro.computation.chains import (
    HopcroftKarp,
    greedy_chain_cover,
    minimum_chain_cover,
)
from repro.computation.computation import Computation, MessageEdge
from repro.computation.cut import (
    Cut,
    final_cut,
    initial_cut,
    least_consistent_cut,
)
from repro.computation.errors import (
    ComputationError,
    CyclicComputationError,
    InvalidCutError,
    UnknownEventError,
)
from repro.computation.reverse import (
    reverse_computation,
    reverse_event_id,
    reverse_event_partner,
)
from repro.computation.lattice import (
    LevelWalk,
    count_consistent_cuts,
    iter_consistent_cuts,
    iter_levels,
    iter_linearizations,
    lattice_width,
    some_linearization,
)

__all__ = [
    "Computation",
    "ComputationBuilder",
    "ComputationError",
    "Cut",
    "CyclicComputationError",
    "HopcroftKarp",
    "InvalidCutError",
    "LevelWalk",
    "MessageEdge",
    "UnknownEventError",
    "count_consistent_cuts",
    "final_cut",
    "greedy_chain_cover",
    "initial_cut",
    "iter_consistent_cuts",
    "iter_levels",
    "iter_linearizations",
    "lattice_width",
    "least_consistent_cut",
    "minimum_chain_cover",
    "reverse_computation",
    "reverse_event_id",
    "reverse_event_partner",
    "some_linearization",
]
