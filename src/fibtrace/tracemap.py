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

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PER2_POLE_BAND",
    "SurfaceMesh",
    "fricke",
    "line_point",
    "on_surface",
    "per2_point",
    "singular_orbit",
    "singular_points",
    "surface_mesh",
    "trace_orbit",
    "trace_step",
    "trace_step_inv",
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


def trace_step_inv(p) -> np.ndarray:
    """Inverse step (y, z, 2yz - x); exact inverse in exact arithmetic."""
    p = _as_point(p)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack([y, z, 2.0 * y * z - x], axis=-1)


def trace_orbit(a, b, c, n: int) -> np.ndarray:
    """s_0 .. s_{n+2} of s_j = 2 s_{j-1} s_{j-2} - s_{j-3} with s_0..s_2 = a, b, c.

    The starts broadcast to some shape; the result is (n + 3, *shape).
    The forward orbit of (x, y, z) starts from (z, y, x), with
    T^k(p) = (s_{k+2}, s_{k+1}, s_k); the backward one from (x, y, z),
    with T^-k(p) = (s_k, s_{k+1}, s_{k+2}).  Each value equals
    ``trace_step``'s or ``trace_step_inv``'s bit for bit, and an orbit
    that escapes runs to inf and NaN without warnings.
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


def on_surface(p, coupling: float, tol: float = 1e-9) -> bool | np.ndarray:
    """Membership test for S_V via the invariant: |G(p) - V^2/4| <= tol."""
    if coupling < 0:
        raise ValueError("coupling must be >= 0")
    if tol <= 0:
        raise ValueError("membership tolerance must be > 0")
    r = np.abs(fricke(p) - coupling * coupling / 4.0) <= tol
    return bool(r) if np.ndim(r) == 0 else r


def line_point(E: float, coupling: float) -> np.ndarray:
    """Initial condition ((E - V)/2, E/2, 1) on S_V for energy E."""
    if coupling < 0:
        raise ValueError("coupling must be >= 0")
    E = float(E)
    if not np.isfinite(E):
        raise ValueError("energy must be finite")
    return np.array([(E - coupling) / 2.0, E / 2.0, 1.0])


def per2_point(x, exclusion_band: float = PER2_POLE_BAND) -> np.ndarray:
    """Point (x, x/(2x-1), x) on the period-2 curve; n values of x give (n, 3).

    The curve has a pole at x = 1/2; arguments within ``exclusion_band``
    of it are rejected because the y-coordinate loses all accuracy there.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    near = np.abs(x - 0.5) < exclusion_band
    if np.any(near):
        raise ValueError(
            f"x={x[near][0]} is within {exclusion_band} of the pole of the "
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


def singular_orbit() -> dict:
    """Singular points of S_0 with their orbit structure under the map."""
    pts = singular_points()
    return {
        "points": pts,
        "fixed": [0],
        "cycle": [1, 2, 3],  # P2 -> P3 -> P4 -> P2
    }


@dataclass
class SurfaceMesh:
    """Two-sheeted sample of a surface S_V over an (x, y) grid.

    For each grid node the quadratic z^2 - 2xyz + (x^2 + y^2 - 1 - V^2/4)
    has zero, one, or two real roots z = xy +- sqrt((x^2-1)(y^2-1) + V^2/4);
    ``valid`` marks nodes where the discriminant is nonnegative.
    """

    coupling: float
    x: np.ndarray          # (nx,) grid abscissae
    y: np.ndarray          # (ny,) grid ordinates
    z_plus: np.ndarray     # (nx, ny) upper sheet, NaN where invalid
    z_minus: np.ndarray    # (nx, ny) lower sheet, NaN where invalid
    valid: np.ndarray = field(repr=False)  # (nx, ny) bool

    def points(self) -> np.ndarray:
        """All emitted (x, y, z, sheet) rows; sheet is +1 or -1."""
        xx, yy = np.meshgrid(self.x, self.y, indexing="ij")
        rows = []
        for z, sheet in ((self.z_plus, 1.0), (self.z_minus, -1.0)):
            m = self.valid
            rows.append(
                np.column_stack(
                    [xx[m], yy[m], z[m], np.full(int(m.sum()), sheet)]
                )
            )
        return np.vstack(rows)


def surface_mesh(
    coupling: float,
    x_range=(-2.0, 2.0),
    y_range=(-2.0, 2.0),
    resolution: int = 101,
) -> SurfaceMesh:
    """Sample both z-sheets of S_V over a rectangular (x, y) grid."""
    if coupling < 0:
        raise ValueError("coupling must be >= 0")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if not (np.isfinite(x_range).all() and np.isfinite(y_range).all()):
        raise ValueError("ranges must be finite")
    x = np.linspace(x_range[0], x_range[1], resolution)
    y = np.linspace(y_range[0], y_range[1], resolution)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    disc = (xx * xx - 1.0) * (yy * yy - 1.0) + coupling * coupling / 4.0
    valid = disc >= 0.0
    root = np.sqrt(np.where(valid, disc, np.nan))
    z_plus = xx * yy + root
    z_minus = xx * yy - root
    return SurfaceMesh(
        coupling=float(coupling),
        x=x,
        y=y,
        z_plus=z_plus,
        z_minus=z_minus,
        valid=valid,
    )
