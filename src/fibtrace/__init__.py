"""Numerical toolkit for the Fibonacci trace map.

Modules:

- ``tracemap``: the map, its Fricke invariant, surfaces, and periodic
  structures; ``trace_orbit`` is the one kernel that runs the trace
  recursion s_j = 2 s_{j-1} s_{j-2} - s_{j-3}, for the spectrum's
  half-traces and the bounded-point screen alike
- ``intervals``: band sets (``BandSet``), finite unions of disjoint
  closed intervals, and interval merging
- ``torus``: the hyperbolic torus automorphism factor and the
  semiconjugacy onto the zero-coupling surface
- ``subshift``: the 6-symbol Markov coding of the bounded dynamics
- ``spectrum``: half-traces and band covers of the quasiperiodic
  spectrum
- ``boxdim``: box-counting dimension estimation for band sets
- ``recurrences``: the coupled recurrence inequalities behind the
  near-singularity expansion bound
- ``certify``: model-map expansion certificates near the singular fixed
  point
- ``empirical``: sampled cone-field and expansion statistics for the
  trace map itself
- ``cli``: reproducible command-line runs
"""

__version__ = "0.1.0"

from .intervals import BandSet, merge_intervals
from .tracemap import (
    fricke,
    per2_point,
    singular_points,
    trace_orbit,
    trace_step,
)

__all__ = [
    "BandSet",
    "__version__",
    "fricke",
    "merge_intervals",
    "per2_point",
    "singular_points",
    "trace_orbit",
    "trace_step",
]
