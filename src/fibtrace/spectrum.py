"""Band covers of the Fibonacci Hamiltonian's spectrum.

The half-traces x_k(E) of the Fibonacci-block transfer matrices obey

    x_{k+1} = 2 x_k x_{k-1} - x_{k-2},
    (x_{-1}, x_0, x_1) = (1, E/2, (E - V)/2),

so they are the coordinates of the trace-map orbit of the line point
((E - V)/2, E/2, 1), and E lies in the spectrum exactly when that orbit
stays bounded.  ``trace_sequence`` runs the recursion, by
``tracemap.trace_orbit``, for an array of energies;
``half_trace_oracle`` multiplies the transfer matrices as an
independent reference.  Periodic approximants give band sets
sigma_k = {E : |x_k(E)| <= 1} whose consecutive unions cover the
spectrum.  By Floquet theory x_k = +1 or -1 exactly at the eigenvalues
of the period-F_k operator with periodic or antiperiodic boundary
conditions, so the band edges are computed as those eigenvalues.  The
word w_k is a mirror image of itself on the ring of F_k sites, so the
reflection folds the ring onto a path of F_k // 2 + 1 sites, and the
two eigenproblems split into four Jacobi (symmetric tridiagonal)
matrices on that path that differ only at its ends.  They are solved
apart, a quarter of the cubic work of two F_k x F_k solves.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# merge_intervals is not called here, but perfbench/spans.py looks it up here
from .intervals import BandSet, merge_intervals  # noqa: F401
from .tracemap import trace_orbit

__all__ = [
    "ALPHA",
    "MAX_LEVEL",
    "approximant_chain",
    "fibonacci",
    "half_trace_oracle",
    "spectrum_cover",
    "trace_sequence",
    "transfer_matrix",
]

ALPHA = (np.sqrt(5.0) - 1.0) / 2.0

#: magnitude past which trace_sequence reports NaN (the orbit escapes)
OVERFLOW = 1e300

MAX_ORACLE_INDEX = 16

#: deepest approximant level; level k solves four Jacobi matrices on a
#: path of F_k // 2 + 1 sites, stored dense for eigvalsh, and F_18 = 4181
#: makes the largest 2091^2, about 35 MB
MAX_LEVEL = 18


@lru_cache(maxsize=None)
def fibonacci(k: int) -> int:
    """F_0 = F_1 = 1, F_{k+1} = F_k + F_{k-1}."""
    if k < 0:
        raise ValueError("index must be >= 0")
    if k <= 1:
        return 1
    return fibonacci(k - 1) + fibonacci(k - 2)


def transfer_matrix(m: int, E, coupling: float) -> np.ndarray:
    """One-step transfer matrix at site m (phase offset fixed to zero).

    The potential indicator fires when m * alpha mod 1 falls in
    [1 - alpha, 1).  Vectorizes over E; result has shape E.shape + (2, 2).
    """
    if m < 1:
        raise ValueError("site index must be >= 1")
    E = np.asarray(E, dtype=float)
    on = 1.0 if (m * ALPHA) % 1.0 >= 1.0 - ALPHA else 0.0
    top = E - float(coupling) * on
    one = np.ones_like(E)
    zero = np.zeros_like(E)
    return np.stack(
        [
            np.stack([top, -one], axis=-1),
            np.stack([one, zero], axis=-1),
        ],
        axis=-2,
    )


def half_trace_oracle(k: int, E, coupling: float):
    """Half-trace of the ordered product over one Fibonacci block.

    Multiplies the one-step matrices T(F_k) ... T(1) directly, with the
    conventional seeds at k = -1 and k = 0.  Deliberately independent of
    the three-term recursion so the two can cross-check each other.
    """
    if not -1 <= k <= MAX_ORACLE_INDEX:
        raise ValueError(f"oracle index must be in -1..{MAX_ORACLE_INDEX}")
    E = np.asarray(E, dtype=float)
    scalar = E.ndim == 0
    E = np.atleast_1d(E)
    if k == -1:
        out = np.ones_like(E)  # trace of [[1, -V], [0, 1]] is 2
    elif k == 0:
        out = E / 2.0
    else:
        prod = transfer_matrix(1, E, coupling)
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(2, fibonacci(k) + 1):
                prod = transfer_matrix(m, E, coupling) @ prod
            out = (prod[..., 0, 0] + prod[..., 1, 1]) / 2.0
    return float(out[0]) if scalar else out


def trace_sequence(E, coupling: float, k_max: int) -> np.ndarray:
    """Half-traces x_{-1} .. x_{k_max} by the recursion, for every E at once.

    Returns an array of shape (k_max + 2, *E.shape) whose row j + 1 holds
    x_j: ``tracemap.trace_orbit`` from (1, E/2, (E - V)/2).  From the
    first value that is non-finite or exceeds ``OVERFLOW`` in magnitude,
    that value and every later one of its energy are NaN.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    E = np.asarray(E, dtype=float)
    x = trace_orbit(1.0, E / 2.0, (E - coupling) / 2.0, k_max - 1)
    x[~np.logical_and.accumulate(np.abs(x) <= OVERFLOW, axis=0)] = np.nan
    return x


def _fibonacci_word(k: int) -> np.ndarray:
    """The period-F_k potential word w_k = w_{k-1} w_{k-2} (w_0 = 0, w_1 = 1)."""
    words = [[0.0], [1.0]]
    for _ in range(2, k + 1):
        words.append(words[-1] + words[-2])
    return np.array(words[k])


def _level_bands(j: int, coupling: float) -> BandSet:
    """sigma_j from the periodic and antiperiodic eigenvalues, block by block.

    x_j(E) = +1 (resp. -1) exactly at the eigenvalues of the ring operator
    with potential V * w_j and hops 1 but for a corner hop +1 (resp. -1).
    The reflection i -> (c - i) mod F_j with c = F_{j-1} - 3 fixes w_j and
    folds the ring onto the path of F_j // 2 + 1 sites that starts at its
    fixed site and walks forward to the far end: a second fixed site when
    F_j is even, a fixed hop when F_j is odd.  A +-1 gauge moves the corner
    sign onto the fixed hop, or onto a hop at a fixed site, which the
    symmetry then also negates.  The even and odd functions of the two
    operators are four Jacobi matrices on the path, one for each choice at
    its two ends: a fixed site is kept, its hop scaled by sqrt 2, or
    dropped, and the fixed hop adds +1 or -1 to the last diagonal entry.
    Sorted together, the 2 F_j eigenvalues pair off into the F_j edges.
    """
    n = fibonacci(j)
    if n == 1:  # one site whose hop is a loop: V + 2 and V - 2
        return BandSet([(coupling - 2.0, coupling + 2.0)], generation=j)
    w, c = _fibonacci_word(j), fibonacci(j - 1) - 3
    start = (c + n * (c % 2)) // 2  # 2 start = c mod n
    i = np.arange(n)
    if not np.array_equal(w[(start - i) % n], w[(start + i) % n]):
        raise AssertionError(f"w_{j} is not symmetric about {c} mod {n}")
    m = n // 2 + 1
    diag = coupling * w[(start + i[:m]) % n]
    off = np.ones(m - 1)
    off[0] *= math.sqrt(2.0)
    if n % 2:  # the far end is the fixed hop: +1 or -1 on the last site
        ends = [(m, 1.0), (m, -1.0)]
    else:  # the far end is a fixed site, kept or dropped; at F_j = 2 the
        # one hop has a fixed site at each end and is scaled to 2
        off[-1] *= math.sqrt(2.0)
        ends = [(m, 0.0), (m - 1, 0.0)]
    block = np.zeros((m, m))
    block.flat[1::m + 1] = block.flat[m::m + 1] = off
    edges = []
    for hi, tail in ends:
        block.flat[::m + 1] = diag
        block[hi - 1, hi - 1] += tail
        for lo in (0, 1):  # the start site kept or dropped
            edges.append(np.linalg.eigvalsh(block[lo:hi, lo:hi]))
    edges = np.sort(np.concatenate(edges)).reshape(-1, 2)
    return BandSet(edges, generation=j)


def approximant_chain(k: int, coupling: float) -> list[BandSet]:
    """Band sets {E : |x_j(E)| <= 1} for approximant indices j = 1..k."""
    if not 1 <= k <= MAX_LEVEL:
        raise ValueError(f"approximant index must be in 1..{MAX_LEVEL}")
    return [_level_bands(j, float(coupling)) for j in range(1, k + 1)]


def spectrum_cover(
    coupling: float, k: int, resolution: float = 1e-4
) -> BandSet:
    """Union of the deepest resolved level pair j, j + 1 with j <= k.

    A pair is resolved when, for V > 0, its two levels hold exactly F_j
    and F_{j+1} bands, and the narrowest band of their gap-free union is
    wider than 100 ulp of the union's largest |edge|.  From j = k the
    cover backs off one level at a time, each level solved once, and
    raises ValueError only when no pair down to j = 1 is resolved.  Gaps
    narrower than ``resolution`` are then merged, and ``generation``
    records the level j actually used.
    """
    if not 1 <= k < MAX_LEVEL:
        raise ValueError(f"approximant index must be in 1..{MAX_LEVEL - 1}")
    coupling = float(coupling)
    upper = _level_bands(k + 1, coupling)
    for j in range(k, 0, -1):
        lower = _level_bands(j, coupling)
        cover = lower.union(upper)
        counted = coupling <= 0 or (
            len(lower) == fibonacci(j) and len(upper) == fibonacci(j + 1)
        )
        lo, hi = cover.extent
        if counted and cover.min_width > 100.0 * math.ulp(max(abs(lo), abs(hi))):
            break
        upper = lower
    else:
        raise ValueError(f"no level pair j, j + 1 with j <= {k} is resolved "
                         f"in float64 at V = {coupling:g}")
    cover = cover.close_gaps(resolution)
    cover.generation = j
    return cover
