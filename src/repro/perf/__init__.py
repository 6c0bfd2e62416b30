"""Performance core for the detection engines (substrate S13).

One piece, layered under :mod:`repro.detection`:
:class:`~repro.perf.causality.CausalityIndex` — per-computation memoized
causality queries over the computation's shared clock table (``leq``
fast path, consistency closure, the lattice walk's receive-delta
successor test, cached per-clause true events / chain covers /
orderedness verdicts).  Its :attr:`~repro.perf.causality.CausalityIndex.matrix`
is a numpy copy of the clock table that only the benchmark harness
reads; it is the one place the package imports numpy.

Cache behaviour is observable through the ``perf.*`` metrics documented
in ``docs/OBSERVABILITY.md``.
"""

from repro.perf.causality import CausalityIndex

__all__ = ["CausalityIndex"]
