"""Array kernels for the hot matching paths.

This package hosts vectorized implementations of the two inner loops that
dominate a matching run:

* :mod:`repro.kernels.strings` — a batched unrestricted Damerau–Levenshtein
  over numpy code-point matrices, used by the fuzzy batch element matcher to
  score every surviving candidate of one query in a handful of array sweeps
  instead of one Python DP per pair.
* :mod:`repro.kernels.objective` — the branch-and-bound ``fast_bound``
  evaluated over a packed per-edge-count table of precomputed path terms.

Both kernels are *bit-identical* to the scalar implementations they replace
(:mod:`repro.matchers.string_metrics` and
:meth:`repro.objective.bellflower.BellflowerObjective.fast_bound`); the
differential suite in ``tests/kernels/`` pins that property.  numpy is a hard
dependency of the package; every call site runs the scalar path when a kernel
declines (tiny batches, unusual inputs).
"""

from repro.kernels.strings import PackedNameTable, batch_fuzzy_scores

__all__ = ["PackedNameTable", "batch_fuzzy_scores"]
