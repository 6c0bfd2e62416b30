"""Performance core for the detection engines (substrate S13).

Three pieces, layered under :mod:`repro.detection`:

* :class:`~repro.perf.causality.CausalityIndex` — per-computation
  memoized causality queries over the computation's shared clock table
  (``leq`` fast path, consistency closure, the lattice walk's
  receive-delta successor test, cached per-clause true events / chain
  covers / orderedness verdicts);
* :class:`~repro.perf.clockmatrix.ClockMatrix` — a numpy copy of the
  clock table for the batched combination sweep; it and the sweep import
  numpy when constructed, never at package import;
* :mod:`repro.perf.parallel` — a chunked ``multiprocessing`` driver for
  the Section 3.3 combination sweeps with deterministic first-witness
  semantics and early cancellation.

This package deliberately does **not** import ``repro.perf.parallel``
here: that module depends on :mod:`repro.detection` (for the CPDHB scan)
and importing it at package level would cycle through the detection
engines, which themselves import the causality index.  The combination
driver imports it only when it forks, as
``from repro.perf.parallel import run_combination_search``.

Cache behaviour is observable through the ``perf.*`` metrics documented
in ``docs/OBSERVABILITY.md``.
"""

from repro.perf.causality import CausalityIndex

__all__ = ["CausalityIndex"]
