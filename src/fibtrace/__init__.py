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
- ``spectrum``: transfer matrices, half-traces, and band covers of the
  quasiperiodic spectrum
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
    line_point,
    on_surface,
    per2_point,
    singular_orbit,
    singular_points,
    surface_mesh,
    trace_orbit,
    trace_step,
    trace_step_inv,
)

__all__ = [
    "BandSet",
    "__version__",
    "fricke",
    "line_point",
    "merge_intervals",
    "on_surface",
    "per2_point",
    "singular_orbit",
    "singular_points",
    "surface_mesh",
    "trace_orbit",
    "trace_step",
    "trace_step_inv",
]
