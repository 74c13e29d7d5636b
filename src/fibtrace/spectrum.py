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
conditions, so the band edges are computed as those eigenvalues.  The
word w_k is a mirror image of itself on the ring of F_k sites, so each
of the two eigenproblems splits into two blocks of about F_k / 2 that
are solved apart, a quarter of the cubic work of one F_k x F_k solve.
"""

from __future__ import annotations

import math
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

#: deepest approximant level; level k solves four mirror blocks of about
#: F_k / 2 sites, and F_18 = 4181 makes each block ~2091^2, about 35 MB
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
    """sigma_j from the periodic and antiperiodic eigenvalues, block by block.

    x_j(E) = +1 (resp. -1) exactly at the eigenvalues of the ring operator
    H with potential V * w_j, whose hop t_i from site i to i + 1 is 1 but
    for the corner hop t_{F_j - 1} = +1 (resp. -1).  The reflection
    R: i -> (c - i) mod F_j with c = F_{j-1} - 3 fixes w_j and maps hop i
    to hop c - 1 - i, so G = D R commutes with H, where the +-1 gauge D
    (g_0 = 1, g_{i+1} = g_i t_i t_{c-1-i}) moves the corner hop back.  G
    is a signed permutation with G^2 = 1.  Its +1 and -1 eigenspaces have
    the orthonormal bases e_i for the fixed sites with g_i = +-1 and
    (e_i +- g_i e_{R i}) / sqrt 2 for the pairs i < R i, and H is built
    in each from its 3 F_j ring entries.  Sorted together, the 2 F_j
    eigenvalues of the four blocks pair off into the F_j band edges.
    """
    w = _fibonacci_word(j)
    n, c = len(w), fibonacci(j - 1) - 3
    site = np.arange(n)
    mirror = (c - site) % n
    if not np.array_equal(w[mirror], w):
        raise AssertionError(f"w_{j} is not symmetric about {c} mod {n}")
    fixed, head = mirror == site, site <= mirror  # head: first site of its orbit
    after, image = (site + 1) % n, (c - 1 - site) % n  # image: R's hop of hop i
    rows = np.concatenate([site, site, after])
    cols = np.concatenate([site, after, site])
    hop = np.ones(n)
    edges = []
    for corner in (1.0, -1.0):
        hop[-1] = corner  # with F_j = 1 the hop is a loop on the diagonal
        ring = np.concatenate([coupling * w, hop, hop])
        gauge = np.cumprod(np.concatenate([[1.0], (hop * hop[image])[:-1]]))
        for sign in (1.0, -1.0):
            # each pair i < R i gives one basis vector to each block, each
            # fixed site one to the block of its gauge sign
            member = ~fixed | (gauge == sign)
            rank = np.cumsum(head & member) - 1
            pos = np.where(member, rank[np.minimum(site, mirror)], -1)
            pair = np.where(head, 1.0, sign * gauge) * np.sqrt(0.5)
            coef = np.where(fixed, 1.0, pair)
            i, k = pos[rows], pos[cols]
            keep = (i >= 0) & (k >= 0)
            block = np.zeros((rank[-1] + 1,) * 2)
            entry = coef[rows] * coef[cols] * ring
            np.add.at(block, (i[keep], k[keep]), entry[keep])
            edges.append(np.linalg.eigvalsh(block))
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
    cover.intervals = merge_intervals(cover.intervals, resolution)
    cover.generation = j
    return cover
