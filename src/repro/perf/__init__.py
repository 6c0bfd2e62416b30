"""Performance core for the detection engines (substrate S13).

Two pieces, layered under :mod:`repro.detection`:

* :class:`~repro.perf.causality.CausalityIndex` — per-computation
  memoized causality queries over the computation's shared clock table
  (``leq`` fast path, consistency closure, the lattice walk's
  receive-delta successor test, cached per-clause true events / chain
  covers / orderedness verdicts);
* :class:`~repro.perf.clockmatrix.ClockMatrix` — a numpy copy of the
  clock table, imported and built only on demand, never at package
  import.  No engine reads it; it stays while the benchmark harness
  times its build.

Cache behaviour is observable through the ``perf.*`` metrics documented
in ``docs/OBSERVABILITY.md``.
"""

from repro.perf.causality import CausalityIndex

__all__ = ["CausalityIndex"]
