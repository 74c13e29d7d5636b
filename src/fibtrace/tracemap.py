"""The Fibonacci trace map, its invariant, and explicit periodic structures.

The phase space is R^3 with coordinates (x, y, z).  The map

    T(x, y, z) = (2xy - z, x, y)

preserves the Fricke invariant G(x, y, z) = x^2 + y^2 + z^2 - 2xyz - 1,
so each level set {G = V^2/4} (the surface S_V) is invariant.  The line
of initial conditions for coupling V is ((E - V)/2, E/2, 1).

Every orbit, forward or backward, is a run of the recursion
s_j = 2 s_{j-1} s_{j-2} - s_{j-3}, and ``trace_orbit`` is the one place
that runs it for many steps.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PER2_POLE_BAND",
    "fricke",
    "per2_point",
    "singular_points",
    "surface_points",
    "trace_orbit",
    "trace_step",
]

#: half-width of the rejected band around the per2_point pole at x = 1/2
PER2_POLE_BAND = 1e-6


def _as_point(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError(f"expected a 3-vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    return p


def trace_step(p) -> np.ndarray:
    """One forward step (2xy - z, x, y).  Accepts a (..., 3) array."""
    p = _as_point(p)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack([2.0 * x * y - z, x, y], axis=-1)


def trace_orbit(a, b, c, n: int) -> np.ndarray:
    """s_0 .. s_{n+2} of s_j = 2 s_{j-1} s_{j-2} - s_{j-3} with s_0..s_2 = a, b, c.

    The starts broadcast to some shape; the result is (n + 3, *shape).
    The forward orbit of (x, y, z) starts from (z, y, x), with
    T^k(p) = (s_{k+2}, s_{k+1}, s_k); the backward one from (x, y, z),
    with T^-k(p) = (s_k, s_{k+1}, s_{k+2}).  Each value equals that of
    ``trace_step``, or of the inverse step (y, z, 2yz - x), bit for bit,
    and an orbit that escapes runs to inf and NaN without warnings.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(c))
    s = np.empty((n + 3, *shape))
    s[0], s[1], s[2] = a, b, c
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(3, n + 3):
            s[j] = 2.0 * s[j - 1] * s[j - 2] - s[j - 3]
    return s


def fricke(p) -> float | np.ndarray:
    """Fricke invariant G = x^2 + y^2 + z^2 - 2xyz - 1, conserved by the map."""
    p = _as_point(p)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    g = x * x + y * y + z * z - 2.0 * x * y * z - 1.0
    return float(g) if g.ndim == 0 else g


def per2_point(x) -> np.ndarray:
    """Point (x, x/(2x-1), x) on the period-2 curve; n values of x give (n, 3).

    The curve has a pole at x = 1/2; arguments within ``PER2_POLE_BAND``
    of it are rejected because the y-coordinate loses all accuracy there.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    near = np.abs(x - 0.5) < PER2_POLE_BAND
    if np.any(near):
        raise ValueError(
            f"x={x[near][0]} is within {PER2_POLE_BAND} of the pole of the "
            "period-2 curve at x=1/2"
        )
    return np.stack([x, x / (2.0 * x - 1.0), x], axis=-1)


def singular_points() -> np.ndarray:
    """The four conic singularities of S_0: P1 fixed, P2->P3->P4->P2."""
    return np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
    )


def surface_points(coupling: float, x, y) -> tuple[np.ndarray, ...]:
    """x, y and z columns of the points of S_V over same-shaped x and y.

    Over each node the quadratic z^2 - 2xyz + (x^2 + y^2 - 1 - V^2/4)
    has the real roots z = xy +- sqrt((x^2-1)(y^2-1) + V^2/4) where the
    discriminant is >= 0.  The upper sheet's points come first, then the
    lower sheet's, each over those nodes in array order.
    """
    disc = (x * x - 1.0) * (y * y - 1.0) + coupling * coupling / 4.0
    ok = disc >= 0.0
    root = np.sqrt(np.where(ok, disc, 0.0))
    xy = x * y
    return (
        np.concatenate([x[ok], x[ok]]),
        np.concatenate([y[ok], y[ok]]),
        np.concatenate([(xy + root)[ok], (xy - root)[ok]]),
    )
