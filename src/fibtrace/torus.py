"""The V=0 factor system: Fibonacci toral automorphism and semiconjugacy.

The automorphism (theta, phi) -> (theta + phi, theta) mod 1 is induced
by the integer matrix A = [[1, 1], [1, 0]] with eigenvalues mu and
-1/mu, mu the golden mean.  The map

    F(theta, phi) = (cos 2pi(theta + phi), cos 2pi theta, cos 2pi phi)

intertwines it with the trace map on the bounded part of S_0.
"""

from __future__ import annotations

import numpy as np

from .tracemap import trace_step

__all__ = [
    "MU",
    "TORUS_MATRIX",
    "V_S",
    "V_U",
    "check_semiconjugacy",
    "df_semiconj",
    "invert_semiconj",
    "semiconj",
    "torus_auto",
]

MU = (1.0 + np.sqrt(5.0)) / 2.0

TORUS_MATRIX = np.array([[1.0, 1.0], [1.0, 0.0]])

#: unit eigenvectors of the torus matrix: A V_U = MU V_U and
#: A V_S = -(1/MU) V_S; the two happen to be orthogonal
V_U = np.array([MU, 1.0]) / np.linalg.norm([MU, 1.0])
V_S = np.array([1.0, -MU]) / np.linalg.norm([1.0, -MU])


def torus_auto(t) -> np.ndarray:
    """One step of the automorphism mod 1.  Accepts (..., 2) arrays."""
    t = np.asarray(t, dtype=float)
    th, ph = t[..., 0], t[..., 1]
    return np.mod(np.stack([th + ph, th], axis=-1), 1.0)


def semiconj(t) -> np.ndarray:
    """F(theta, phi); the image lies on S_0."""
    t = np.asarray(t, dtype=float)
    th, ph = t[..., 0], t[..., 1]
    tau = 2.0 * np.pi
    return np.stack(
        [np.cos(tau * (th + ph)), np.cos(tau * th), np.cos(tau * ph)], axis=-1
    )


def df_semiconj(t) -> np.ndarray:
    """Jacobian of F at t, a (..., 3, 2) array."""
    t = np.asarray(t, dtype=float)
    th, ph = t[..., 0], t[..., 1]
    tau = 2.0 * np.pi
    s_sum = np.sin(tau * (th + ph))
    s_th = np.sin(tau * th)
    s_ph = np.sin(tau * ph)
    zero = np.zeros_like(th)
    rows = np.stack(
        [
            np.stack([s_sum, s_sum], axis=-1),
            np.stack([s_th, zero], axis=-1),
            np.stack([zero, s_ph], axis=-1),
        ],
        axis=-2,
    )
    return -tau * rows


def invert_semiconj(p) -> np.ndarray:
    """A torus preimage of a point near the bounded part of S_0.

    Coordinates are clamped into [-1, 1] before taking arccos, so the
    map doubles as a projection for points on nearby surfaces S_V.  Of
    the four sign choices for (theta, phi) the one best matching the
    x-coordinate is returned.
    """
    p = np.asarray(p, dtype=float)
    y = np.clip(p[..., 1], -1.0, 1.0)
    z = np.clip(p[..., 2], -1.0, 1.0)
    tau = 2.0 * np.pi
    t0 = np.stack([np.arccos(y) / tau, np.arccos(z) / tau], axis=-1)
    # the four choices (+-theta, +-phi) on a leading axis; argmin keeps
    # the first of equally good candidates
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    cand = np.mod(signs.reshape((4,) + (1,) * (t0.ndim - 1) + (2,)) * t0, 1.0)
    err = np.abs(np.cos(tau * (cand[..., 0] + cand[..., 1])) - p[..., 0])
    pick = np.argmin(err, axis=0)
    return np.take_along_axis(cand, pick[None, ..., None], axis=0)[0]


def check_semiconjugacy(grid_resolution: int = 512) -> float:
    """Max defect of T(F(t)) - F(At) over a uniform torus grid."""
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    u = np.arange(grid_resolution) / grid_resolution
    th, ph = np.meshgrid(u, u, indexing="ij")
    t = np.stack([th, ph], axis=-1).reshape(-1, 2)
    defect = trace_step(semiconj(t)) - semiconj(torus_auto(t))
    return float(np.max(np.linalg.norm(defect, axis=-1)))
