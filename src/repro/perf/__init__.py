"""Performance layer: the sweep driver + compile/trace artifact cache.

The Section 4 methodology is embarrassingly parallel — benchmarks are
independent, and the three simulations per benchmark (single-cluster
baseline, dual-cluster "none", dual-cluster "local") share nothing but
deterministically reproducible inputs.  This package exploits both axes:

* :mod:`repro.perf.fingerprint` — deterministic content hashes usable as
  cache keys across processes and runs (``hash()`` is randomized per
  process and ``repr`` of arbitrary objects embeds addresses; neither
  can key a shared cache);
* :mod:`repro.perf.cache` — the content-keyed artifact cache for
  compilation results and generated traces, with in-memory and on-disk
  tiers plus hit/miss counters;
* :mod:`repro.perf.parallel` — the one sweep driver behind every
  ``--jobs N`` sweep (Table 2, ablations, design-space search);
* :mod:`repro.perf.executor` — the supervised process pool under the
  driver (task ledger, per-task deadlines, re-dispatch of lost tasks,
  circuit breaker).

Timing lives outside the package: ``benchmarks/e2e`` measures the
sweeps end to end and layer by layer.

Import the submodules directly: :mod:`repro.perf.cache` is imported by
the experiment harness, which must not pull in the executors, so this
package re-exports nothing.
"""
