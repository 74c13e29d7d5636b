"""The V=0 factor system: Fibonacci toral automorphism and semiconjugacy.

The automorphism (theta, phi) -> (theta + phi, theta) mod 1 is induced
by the integer matrix A = [[1, 1], [1, 0]] with eigenvalues mu and
-1/mu, mu the golden mean.  The map

    F(theta, phi) = (cos 2pi(theta + phi), cos 2pi theta, cos 2pi phi)

intertwines it with the trace map on the bounded part of S_0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tracemap import trace_step

__all__ = [
    "MU",
    "TORUS_MATRIX",
    "EigenData",
    "check_semiconjugacy",
    "cone_expansion_check",
    "cone_member_2d",
    "df_angle_ratio_bounds",
    "df_semiconj",
    "eigen_data",
    "invert_semiconj",
    "sample_cone_vectors",
    "semiconj",
    "torus_auto",
]

MU = (1.0 + np.sqrt(5.0)) / 2.0

TORUS_MATRIX = np.array([[1.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class EigenData:
    """Eigenvalue mu and unit eigenvectors of the torus matrix.

    A v_u = mu v_u and A v_s = -(1/mu) v_s; the two vectors happen to be
    orthogonal, which makes cone decompositions a plain projection.
    """

    mu: float
    v_u: np.ndarray
    v_s: np.ndarray


def eigen_data() -> EigenData:
    v_u = np.array([MU, 1.0])
    v_s = np.array([1.0, -MU])
    return EigenData(
        mu=MU, v_u=v_u / np.linalg.norm(v_u), v_s=v_s / np.linalg.norm(v_s)
    )


def torus_auto(t, inverse: bool = False) -> np.ndarray:
    """One step of the automorphism mod 1.  Accepts (..., 2) arrays."""
    t = np.asarray(t, dtype=float)
    th, ph = t[..., 0], t[..., 1]
    if inverse:
        out = np.stack([ph, th - ph], axis=-1)
    else:
        out = np.stack([th + ph, th], axis=-1)
    return np.mod(out, 1.0)


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


def _decompose(v) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of v in the (orthonormal) eigenbasis."""
    e = eigen_data()
    v = np.asarray(v, dtype=float)
    return v @ e.v_u, v @ e.v_s


def cone_member_2d(v, zeta: float, which: str = "unstable") -> bool | np.ndarray:
    """Cone membership: the dominant eigen-component wins by factor 1/zeta."""
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must be in (0, 1)")
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(v, axis=-1)
    if np.any(norms == 0.0):
        raise ValueError("zero vector has no cone membership")
    cu, cs = _decompose(v)
    if which == "unstable":
        r = np.abs(cu) > np.abs(cs) / zeta
    elif which == "stable":
        r = np.abs(cs) > np.abs(cu) / zeta
    else:
        raise ValueError(f"unknown cone kind {which!r}")
    return bool(r) if np.ndim(r) == 0 else r


def sample_cone_vectors(
    zeta: float, n: int, rng=None, which: str = "unstable"
) -> np.ndarray:
    """Random unit vectors strictly inside the requested cone."""
    rng = np.random.default_rng(rng)
    e = eigen_data()
    major = rng.choice([-1.0, 1.0], size=n)
    minor = rng.uniform(-zeta, zeta, size=n) * 0.999
    if which == "unstable":
        v = major[:, None] * e.v_u + (major * minor)[:, None] * e.v_s
    else:
        v = major[:, None] * e.v_s + (major * minor)[:, None] * e.v_u
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def cone_expansion_check(
    zeta: float,
    n: int,
    samples: int = 1000,
    rng=None,
    which: str = "unstable",
) -> float:
    """Min of |A^n v| / (mu^n |v|) over random cone vectors.

    The guaranteed lower bound is 1/sqrt(1 + zeta^2); stable cones are
    checked against the inverse matrix by symmetry.
    """
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    v = sample_cone_vectors(zeta, samples, rng=rng, which=which)
    mat = TORUS_MATRIX if which == "unstable" else np.linalg.inv(TORUS_MATRIX)
    w = v
    for _ in range(n):
        w = w @ mat.T
    ratios = np.linalg.norm(w, axis=-1) / (
        MU**n * np.linalg.norm(v, axis=-1)
    )
    return float(np.min(ratios))


def df_angle_ratio_bounds(
    neighborhood_radius: float = 0.05, samples: int = 4000, rng=None
) -> tuple[float, float, float]:
    """Angle/length statistics of the two DF column images near (0, 0).

    Returns (max cos angle, min length ratio, max length ratio) over a
    punctured disc around the singular preimage.  The cosine stays below
    sqrt(2/3) + O(radius) and the ratio is pinched between ~1/sqrt(2)
    and ~sqrt(2), which is what makes the projective action of DF tame.
    """
    if neighborhood_radius <= 0 or neighborhood_radius > 0.25:
        raise ValueError("neighborhood_radius must be in (0, 0.25]")
    rng = np.random.default_rng(rng)
    r = neighborhood_radius * np.sqrt(rng.uniform(1e-6, 1.0, size=samples))
    a = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    t = np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)
    # drop samples where theta + phi ~ 0: both columns degenerate together
    keep = np.abs(t[:, 0] + t[:, 1]) > 1e-8 * neighborhood_radius
    t = t[keep]
    jac = df_semiconj(np.mod(t, 1.0))
    c1, c2 = jac[..., 0], jac[..., 1]
    n1 = np.linalg.norm(c1, axis=-1)
    n2 = np.linalg.norm(c2, axis=-1)
    ok = (n1 > 0) & (n2 > 0)
    c1, c2, n1, n2 = c1[ok], c2[ok], n1[ok], n2[ok]
    cos_angle = np.einsum("ij,ij->i", c1, c2) / (n1 * n2)
    ratio = n1 / n2
    return float(np.max(cos_angle)), float(np.min(ratio)), float(np.max(ratio))
