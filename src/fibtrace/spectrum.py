"""Band covers of the Fibonacci Hamiltonian's spectrum.

The half-traces x_k(E) of the Fibonacci-block transfer matrices obey

    x_{k+1} = 2 x_k x_{k-1} - x_{k-2},
    (x_{-1}, x_0, x_1) = (1, E/2, (E - V)/2),

so they are the coordinates of the trace-map orbit of the line point
((E - V)/2, E/2, 1), and E lies in the spectrum exactly when that orbit
stays bounded.  ``trace_sequence`` runs the recursion, by
``tracemap.trace_orbit``, for an array of energies; the tests check it
against products of the transfer matrices.  Periodic approximants give
band sets sigma_k = {E : |x_k(E)| <= 1} whose consecutive unions cover
the spectrum.  By Floquet theory x_k = +1 or -1 exactly at the eigenvalues
of the period-F_k operator with periodic or antiperiodic boundary
conditions, so the band edges are computed as those eigenvalues.  The
word w_k is a mirror image of itself on the ring of F_k sites, so the
reflection folds the ring onto a path of F_k // 2 + 1 sites, and the
two eigenproblems split into four Jacobi (symmetric tridiagonal)
matrices on that path that differ only at its ends.  Each is passed as
its (diagonal, off-diagonal) pair to LAPACK's tridiagonal eigenvalue
routine dsterf, found in the LAPACK that numpy's linalg already loaded:
O(F_k^2) time and O(F_k) memory per level, with the bits that
``np.linalg.eigvalsh`` gives on the dense matrices.
"""

from __future__ import annotations

import ctypes
import math
from functools import lru_cache

import numpy as np

# merge_intervals is not called here, but perfbench/spans.py looks it up here
from .intervals import BandSet, merge_intervals  # noqa: F401
from .tracemap import trace_orbit

__all__ = [
    "MAX_LEVEL",
    "approximant_chain",
    "fibonacci",
    "spectrum_cover",
    "trace_sequence",
]

#: magnitude past which trace_sequence reports NaN (the orbit escapes)
OVERFLOW = 1e300

#: deepest approximant level; level k solves four Jacobi matrices on a
#: path of F_k // 2 + 1 sites, held as their (diagonal, off-diagonal)
#: pairs, so F_18 = 4181 makes the largest two arrays of 2091 floats
#: (without dsterf, a dense 2091^2 block of about 35 MB)
MAX_LEVEL = 18


def _lapack_dsterf():
    """LAPACK dsterf from the OpenBLAS that numpy's linalg loaded, or None.

    numpy 2.x wheels link scipy-openblas64, whose 64-bit-integer LAPACKE
    entry is int64 scipy_LAPACKE_dsterf64_(int64 n, double *d, double *e);
    it returns LAPACK's info.  A numpy built against another LAPACK lacks
    the symbol or the module.
    """
    try:
        fn = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_LAPACKE_dsterf64_
    except (AttributeError, OSError):
        return None
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    fn.restype = ctypes.c_int64
    return fn


_DSTERF = _lapack_dsterf()

#: dsyevd scales a matrix of order 2 or more whose largest |entry| exceeds
#: sqrt(eps / tiny) = 2^485 down to that size before dsterf, and its
#: eigenvalues back after
_RMAX = math.sqrt(np.finfo(float).eps / np.finfo(float).tiny)


@lru_cache(maxsize=None)
def fibonacci(k: int) -> int:
    """F_0 = F_1 = 1, F_{k+1} = F_k + F_{k-1}."""
    if k < 0:
        raise ValueError("index must be >= 0")
    if k <= 1:
        return 1
    return fibonacci(k - 1) + fibonacci(k - 2)


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


def _jacobi_blocks(j: int, coupling: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Level j's Jacobi matrices as (diagonal, off-diagonal) pairs.

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
    F_1 = 1 is one site whose hop is a loop, two 1 x 1 matrices V + 2 and
    V - 2.  Either way the matrices hold 2 F_j eigenvalues in all.
    """
    n = fibonacci(j)
    if n == 1:
        return [(np.array([coupling + 2.0]), np.empty(0)),
                (np.array([coupling - 2.0]), np.empty(0))]
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
    blocks = []
    for hi, tail in ends:
        d = diag[:hi].copy()
        d[-1] += tail
        # the start site kept or dropped
        blocks += [(d[lo:], off[lo:hi - 1]) for lo in (0, 1)]
    return blocks


def _jacobi_eigvalsh(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Jacobi matrix with diagonal d, off-diagonal e.

    ``np.linalg.eigvalsh`` of the dense matrix runs LAPACK dsyevd, whose
    O(m^3) Householder reduction leaves a tridiagonal matrix as it is
    before it calls dsterf.  So dsterf on copies of (d, e), scaled as
    dsyevd scales them, gives the same bits in O(m^2) time and O(m)
    memory.  Where numpy's LAPACK has no dsterf to call, the dense matrix
    goes to eigvalsh.  An off-diagonal of the wrong length is refused on
    either path.
    """
    m = len(d)
    if len(e) != max(m - 1, 0):
        raise ValueError(f"a Jacobi matrix of order {m} has {max(m - 1, 0)} "
                         f"off-diagonal entries, not {len(e)}")
    if _DSTERF is None:
        block = np.zeros((m, m))
        block.flat[::m + 1] = d
        block.flat[1::m + 1] = block.flat[m::m + 1] = e
        return np.linalg.eigvalsh(block)
    top = max(np.abs(d).max(initial=0.0), np.abs(e).max(initial=0.0))
    sigma = _RMAX / top if m > 1 and top > _RMAX else 1.0
    # float64 copies, which dsterf overwrites
    d, e = np.multiply(d, sigma, dtype=float), np.multiply(e, sigma, dtype=float)
    info = _DSTERF(m, d.ctypes.data, e.ctypes.data)
    if info:
        raise ArithmeticError(f"LAPACK dsterf failed with info = {info} "
                              f"on a Jacobi matrix of order {m}")
    return d * (1.0 / sigma)


def _level_bands(j: int, coupling: float) -> BandSet:
    """sigma_j from the periodic and antiperiodic eigenvalues, block by block.

    Sorted together, the 2 F_j eigenvalues of ``_jacobi_blocks`` pair off
    into the F_j edges.
    """
    edges = [_jacobi_eigvalsh(d, e) for d, e in _jacobi_blocks(j, coupling)]
    edges = np.sort(np.concatenate(edges)).reshape(-1, 2)
    return BandSet(edges)


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
