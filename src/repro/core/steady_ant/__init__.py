"""Sticky braid (seaweed / unit-Monge) multiplication.

The *steady ant* algorithm of Tiskin (2015) multiplies two reduced sticky
braids — equivalently, computes the (min,+) product of two simple
unit-Monge distribution matrices — in O(n log n) time (paper Listing 2).

Implementations, mirroring the paper's §5.1 ablation:

- :func:`repro.core.steady_ant.sequential.steady_ant_sequential` — the
  plain divide-and-conquer algorithm ("base"),
- :func:`repro.core.steady_ant.precalc.steady_ant_precalc` — recursion cut
  off at order <= 5 with a table of precomputed products ("precalc"),
- :func:`repro.core.steady_ant.memory.steady_ant_memory` — preallocated
  memory arena, no per-level allocation ("memory"),
- :func:`repro.core.steady_ant.combined.steady_ant_combined` — both
  optimizations ("combined"); this is :data:`steady_ant_multiply`, the
  default multiplication used across the library,
- :func:`repro.core.steady_ant.parallel.steady_ant_parallel` — the
  task-parallel version of Listing 5,
- :func:`repro.core.steady_ant.vectorized.steady_ant_vectorized` — the
  level-vectorized engine: breadth-first expansion with batched lane
  splits and a batched dense (min,+) base case (bit-identical to
  "combined", ~2x faster warm; the parallel grid's default multiply),
- :func:`repro.core.steady_ant.naive.sticky_multiply_dense` — O(n^3)
  explicit reference (re-exported from :mod:`repro.core.dist_matrix`).
"""

from .sequential import steady_ant_sequential
from .precalc import steady_ant_precalc, PrecalcTable
from .memory import steady_ant_memory
from .combined import steady_ant_combined
from .vectorized import steady_ant_vectorized, warm_compute_kernels
from .naive import sticky_multiply_dense, sticky_multiply_quadratic

#: Default braid multiplication used throughout the library.
steady_ant_multiply = steady_ant_combined

__all__ = [
    "steady_ant_sequential",
    "steady_ant_precalc",
    "steady_ant_memory",
    "steady_ant_combined",
    "steady_ant_vectorized",
    "steady_ant_multiply",
    "steady_ant_parallel",
    "sticky_multiply_dense",
    "sticky_multiply_quadratic",
    "PrecalcTable",
    "warm_compute_kernels",
]


def steady_ant_parallel(p, q, **kwargs):
    """Lazy import wrapper for :mod:`repro.core.steady_ant.parallel`."""
    from .parallel import steady_ant_parallel as impl

    return impl(p, q, **kwargs)
