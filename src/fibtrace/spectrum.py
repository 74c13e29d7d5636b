"""Band covers of the Fibonacci Hamiltonian's spectrum.

The half-traces x_k(E) of the Fibonacci-block transfer matrices obey

    x_{k+1} = 2 x_k x_{k-1} - x_{k-2},
    (x_{-1}, x_0, x_1) = (1, E/2, (E - V)/2),

so they are the coordinates of the trace-map orbit of the line point
((E - V)/2, E/2, 1), and E lies in the spectrum exactly when that orbit
stays bounded.  ``trace_sequence`` runs the recursion for an array of
energies; ``half_trace_oracle`` multiplies the transfer matrices as an
independent reference.  Periodic approximants give band sets
sigma_k = {E : |x_k(E)| <= 1} whose consecutive unions cover the
spectrum.  By Floquet theory x_k = +1 or -1 exactly at the eigenvalues
of the period-F_k operator with periodic or antiperiodic boundary
conditions, so the band edges are computed as those eigenvalues.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# merge_intervals is looked up here by perfbench/spans.py
from .intervals import BandSet, merge_intervals  # noqa: F401

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

#: deepest approximant level; level k solves two dense F_k x F_k
#: eigenproblems, and F_18 = 4181 makes each matrix 140 MB
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
    x_j.  From the first value that is non-finite or exceeds ``OVERFLOW``
    in magnitude, that value and every later one of its energy are NaN.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    E = np.asarray(E, dtype=float)
    x = np.empty((k_max + 2, *E.shape))
    x[0], x[1], x[2] = 1.0, E / 2.0, (E - coupling) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(3, k_max + 2):
            x[j] = 2.0 * x[j - 1] * x[j - 2] - x[j - 3]
        x[~np.logical_and.accumulate(np.abs(x) <= OVERFLOW, axis=0)] = np.nan
    return x


def _fibonacci_word(k: int) -> np.ndarray:
    """The period-F_k potential word w_k = w_{k-1} w_{k-2} (w_0 = 0, w_1 = 1)."""
    words = [[0.0], [1.0]]
    for _ in range(2, k + 1):
        words.append(words[-1] + words[-2])
    return np.array(words[k])


def _level_bands(j: int, coupling: float) -> BandSet:
    """sigma_j from the periodic and antiperiodic eigenvalues.

    x_j(E) = +1 (resp. -1) exactly at the eigenvalues of the period-F_j
    operator with potential V * w_j under periodic (antiperiodic)
    boundary conditions.  Sorted together, the 2 F_j values pair off
    into the F_j band edges.
    """
    h = np.diag(coupling * _fibonacci_word(j))
    idx = np.arange(len(h) - 1)
    h[idx, idx + 1] = h[idx + 1, idx] = 1.0
    edges = []
    for corner in (1.0, -1.0):
        g = h.copy()
        g[0, -1] += corner  # adds to the diagonal when F_j = 1
        g[-1, 0] += corner
        edges.append(np.linalg.eigvalsh(g))
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
    """Union of the level-k and level-(k+1) band sets as a spectral cover.

    Gaps narrower than ``resolution`` are merged.  For V > 0 the two
    levels must hold exactly F_k and F_{k+1} bands; a level that lost
    bands to float64 precision raises ValueError.
    """
    if k < 1:
        raise ValueError("approximant index must be >= 1")
    if k + 1 > MAX_LEVEL:
        raise ValueError(f"approximant index must be in 1..{MAX_LEVEL}")
    levels = [_level_bands(j, float(coupling)) for j in (k, k + 1)]
    if coupling > 0:
        for bands in levels:
            j = bands.generation
            if len(bands) != fibonacci(j):
                raise ValueError(
                    f"level {j} resolves {len(bands)} of "
                    f"F_{j} = {fibonacci(j)} bands at V = {coupling:g}"
                )
    cover = levels[0].union(levels[1], gap_tol=resolution)
    cover.generation = k
    return cover
