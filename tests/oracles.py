"""Independent references that the tests and the acceptance criteria
compare the program against.

None of these is reached by the program.  Each computes an object the
program also computes, by another route: transfer-matrix products for the
half-traces, depth-first enumeration for the word counts, bisection for
the dominant root, the inverse step for the bounded-point screen, and the
torus automorphism for the semiconjugacy.
"""

from __future__ import annotations

import numpy as np

from fibtrace.spectrum import fibonacci
from fibtrace.subshift import TRANSITION
from fibtrace.torus import semiconj
from fibtrace.tracemap import fricke, singular_points, trace_step

ALPHA = (np.sqrt(5.0) - 1.0) / 2.0

MAX_ORACLE_INDEX = 16

TORUS_MATRIX = np.array([[1.0, 1.0], [1.0, 0.0]])


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


def enumerate_words(n: int) -> int:
    """Admissible word count by explicit depth-first enumeration.

    Independent of the matrix-power route of ``subshift.counts``.
    """
    if not 1 <= n <= 12:
        raise ValueError("enumeration is only sensible for n <= 12")
    total = 0
    stack = [(s, 1) for s in range(6)]
    while stack:
        sym, length = stack.pop()
        if length == n:
            total += 1
            continue
        for nxt in range(6):
            if TRANSITION[sym, nxt]:
                stack.append((nxt, length + 1))
    return total


def characteristic_root(lo: float = 1.0, hi: float = 4.0) -> float:
    """Largest root of det(A - xI) found by bisection; oracle for entropy."""
    mat = TRANSITION.astype(float)

    def charpoly(x: float) -> float:
        return float(np.linalg.det(mat - x * np.eye(6)))

    # det(A - xI) ~ x^6 for large x, so it is positive at hi and the
    # dominant root is the last sign change below it
    f_hi = charpoly(hi)
    if f_hi <= 0:
        raise ValueError("hi does not bracket the dominant root")
    grid = np.linspace(hi, lo, 400)
    a = None
    for x in grid:
        if charpoly(x) < 0:
            a = x
            break
    if a is None:
        raise ValueError("no sign change in [lo, hi]")
    b = a + (hi - lo) / 399
    for _ in range(200):
        m = 0.5 * (a + b)
        if charpoly(m) < 0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def torus_auto(t) -> np.ndarray:
    """One step of the automorphism mod 1.  Accepts (..., 2) arrays."""
    t = np.asarray(t, dtype=float)
    th, ph = t[..., 0], t[..., 1]
    return np.mod(np.stack([th + ph, th], axis=-1), 1.0)


def check_semiconjugacy(grid_resolution: int = 512) -> float:
    """Max defect of T(F(t)) - F(At) over a uniform torus grid."""
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    u = np.arange(grid_resolution) / grid_resolution
    th, ph = np.meshgrid(u, u, indexing="ij")
    t = np.stack([th, ph], axis=-1).reshape(-1, 2)
    defect = trace_step(semiconj(t)) - semiconj(torus_auto(t))
    return float(np.max(np.linalg.norm(defect, axis=-1)))


def trace_step_inv(p) -> np.ndarray:
    """Inverse step (y, z, 2yz - x); exact inverse in exact arithmetic."""
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack([y, z, 2.0 * y * z - x], axis=-1)


def on_surface(p, coupling: float, tol: float = 1e-9) -> np.ndarray:
    """Membership test for S_V via the invariant: |G(p) - V^2/4| <= tol."""
    return np.abs(fricke(p) - coupling * coupling / 4.0) <= tol


def singular_orbit() -> dict:
    """Singular points of S_0 with their orbit structure under the map."""
    return {
        "points": singular_points(),
        "fixed": [0],
        "cycle": [1, 2, 3],  # P2 -> P3 -> P4 -> P2
    }


def in_bands(intervals: np.ndarray, e, slack: float = 0.0) -> np.ndarray:
    """Whether each e lies within slack of the sorted disjoint (n, 2)
    intervals: the last band whose lo - slack <= e is the only one that
    can hold it."""
    e = np.asarray(e, dtype=float)
    lo, hi = intervals.T
    i = np.searchsorted(lo - slack, e, side="right") - 1
    return (i >= 0) & (e <= hi[np.maximum(i, 0)] + slack)
