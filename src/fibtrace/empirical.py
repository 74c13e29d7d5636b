"""Empirical expansion certificate for the trace map at small coupling.

Samples surface points whose orbits stay bounded in both time directions
(a computable stand-in for the non-wandering set), equips them with
unstable directions pulled over from the V=0 cone family through the
torus semiconjugacy, and pushes those vectors through the differential
of the trace map along orbit segments.  Reported are the worst expansion
ratio against mu^(n(1-4 eps)) and the fraction of steps, away from the
singular points, where the vector stayed inside the unstable cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import torus
from .certify import singular_eigen
from .tracemap import singular_points, trace_step, trace_step_inv

__all__ = ["EmpiricalReport", "empirical_trace_certificate", "sample_bounded_points"]

MU = torus.MU


def trace_jacobian(p) -> np.ndarray:
    """Differential of the trace map; a (..., 3) array gives (..., 3, 3)."""
    p = np.asarray(p, dtype=float)
    jac = np.zeros(p.shape + (3,))
    jac[..., 0, 0] = 2.0 * p[..., 1]
    jac[..., 0, 1] = 2.0 * p[..., 0]
    jac[..., 0, 2] = -1.0
    jac[..., 1, 0] = 1.0
    jac[..., 2, 1] = 1.0
    return jac


def _row_norms(q: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, 3) array.

    The same sum in the same order as ``np.linalg.norm(q, axis=-1)``, so
    bitwise equal to it, but taken over whole columns instead of reducing
    along the short last axis, which is several times faster.
    """
    x, y, z = q[:, 0], q[:, 1], q[:, 2]
    return np.sqrt(x * x + y * y + z * z)


def sample_bounded_points(
    coupling: float,
    n_samples: int,
    n_forward: int = 30,
    norm_cap: float = 10.0,
    grid: int = 160,
    rng=None,
) -> np.ndarray:
    """Surface points bounded for n_forward steps in both directions.

    Candidates come from both z-sheets of the surface over a jittered
    (x, y) grid in the square holding the bounded component.  The
    singular vertices themselves are excluded; everything else near them
    is handled downstream by the singular-neighborhood radius.
    """
    rng = np.random.default_rng(rng)
    u = np.linspace(-0.999, 0.999, grid)
    xx, yy = np.meshgrid(u, u, indexing="ij")
    xx = xx + rng.uniform(-0.5, 0.5, xx.shape) * (u[1] - u[0])
    yy = yy + rng.uniform(-0.5, 0.5, yy.shape) * (u[1] - u[0])
    disc = (xx * xx - 1.0) * (yy * yy - 1.0) + coupling * coupling / 4.0
    ok = disc >= 0.0
    root = np.sqrt(np.where(ok, disc, 0.0))
    cand = np.concatenate(
        [
            np.stack([xx[ok], yy[ok], (xx * yy + root)[ok]], axis=-1),
            np.stack([xx[ok], yy[ok], (xx * yy - root)[ok]], axis=-1),
        ]
    )
    # drop candidates at the singular vertices themselves
    for s in singular_points():
        cand = cand[_row_norms(cand - s) > 1e-6]
    # step only the rows still bounded, so ruled-out rows cannot overflow
    live = np.arange(len(cand))
    for stepper in (trace_step, trace_step_inv):
        q = cand[live]
        for _ in range(n_forward):
            q = stepper(q)
            ok = _row_norms(q) <= norm_cap
            q, live = q.compress(ok, axis=0), live[ok]
        if not len(live):
            break
    pts = cand[live]
    if len(pts) > n_samples:
        pts = pts[rng.choice(len(pts), size=n_samples, replace=False)]
    return pts


def _unstable_frame(p) -> tuple[np.ndarray, np.ndarray]:
    """Pushed-forward unstable/stable directions at the V=0 shadows of p.

    Accepts a (..., 3) array of points; both directions come back with
    the same shape.
    """
    t = torus.invert_semiconj(p)
    jac = torus.df_semiconj(t)
    e = torus.eigen_data()
    return jac @ e.v_u, jac @ e.v_s


def _project_tangent(v, p) -> np.ndarray:
    """Remove from each v its component normal to the surface through p.

    Rows whose surface gradient (nearly) vanishes keep v unchanged.
    """
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    grad = np.stack(
        [
            2.0 * x - 2.0 * y * z,
            2.0 * y - 2.0 * x * z,
            2.0 * z - 2.0 * x * y,
        ],
        axis=-1,
    )
    g2 = np.sum(grad * grad, axis=-1)
    flat = g2 < 1e-14
    scale = np.sum(v * grad, axis=-1) / np.where(flat, 1.0, g2)
    return v - np.where(flat, 0.0, scale)[..., None] * grad


def _frame_coefficients(e_u, e_s, w) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of each w on the basis (e_u, e_s).

    Solves the 2x2 normal equations in closed form.  Where the Gram
    determinant is 0 the basis has rank <= 1 (it vanishes where the
    semiconjugacy's differential does), and the minimum-norm solution
    B^T w / ||B||_F^2, or 0 for B = 0, is returned, as lstsq would.
    """
    a = np.sum(e_u * e_u, axis=-1)
    b = np.sum(e_u * e_s, axis=-1)
    c = np.sum(e_s * e_s, axis=-1)
    r_u = np.sum(e_u * w, axis=-1)
    r_s = np.sum(e_s * w, axis=-1)
    det = a * c - b * b
    full = det > 0.0
    trace = a + c
    den = np.where(full, det, np.where(trace > 0.0, trace, 1.0))
    coef_u = np.where(full, c * r_u - b * r_s, r_u) / den
    coef_s = np.where(full, a * r_s - b * r_u, r_s) / den
    return coef_u, coef_s


@dataclass
class EmpiricalReport:
    coupling: float
    n_steps: int
    samples_total: int
    samples_used: int
    inconclusive: int
    min_expansion_ratio: float
    cone_checks: int
    cone_hits: int
    singular_radius: float
    per_sample_ratios: np.ndarray = field(repr=False)

    @property
    def cone_invariance_fraction(self) -> float:
        return self.cone_hits / self.cone_checks if self.cone_checks else 0.0

    @property
    def inconclusive_rate(self) -> float:
        return (
            self.inconclusive / self.samples_total if self.samples_total else 1.0
        )


def _eigenframe_distance(p, inv_frame: np.ndarray) -> np.ndarray:
    """Distance to the nearest singular point, in the eigenbasis frame.

    Accepts a (..., 3) array of points and returns a (...) array.
    """
    deltas = p[..., None, :] - singular_points()
    return np.min(np.linalg.norm(deltas @ inv_frame.T, axis=-1), axis=-1)


def empirical_trace_certificate(
    coupling: float,
    sample_size: int = 1000,
    n_forward: int = 30,
    epsilon: float = 0.1,
    zeta: float = 0.1,
    singular_radius: float = 0.05,
    norm_cap: float = 10.0,
    rng=None,
) -> EmpiricalReport:
    """Cone invariance and expansion statistics along bounded orbits.

    For each sampled point the unstable direction of the V=0 factor is
    projected onto the tangent plane of S_V and transported through the
    trace-map differential for ``n_forward`` steps.  Cone membership is
    tested at every step whose orbit point lies outside the declared
    singular neighborhoods (measured in the eigenframe of the singular
    differential); the expansion ratio compares the final stretch with
    mu^(n(1-4 eps)).  All samples advance together as (n, 3) arrays.
    """
    if not 0.0 < coupling <= 0.5:
        raise ValueError("empirical certificate expects 0 < V <= 0.5")
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    if not 0.0 < epsilon < 0.25:
        raise ValueError("epsilon must be in (0, 0.25)")
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must be in (0, 1)")
    if not singular_radius >= 0.0:
        raise ValueError("singular_radius must be >= 0")
    rng = np.random.default_rng(rng)
    pts = sample_bounded_points(
        coupling, sample_size, n_forward, norm_cap, rng=rng
    )
    frame = singular_eigen().eigenvectors
    inv_frame = np.linalg.inv(frame)
    target = MU ** (n_forward * (1.0 - 4.0 * epsilon))
    n = len(pts)
    # the carried vector v is dropped inside every singular neighborhood
    # and re-seeded on exit, mirroring how the orbit is split into
    # segments between near-singular passages; v_total is transported
    # over the whole window from the first seeding, for the ratio
    v = np.zeros((n, 3))
    v_total = np.zeros((n, 3))
    has_v = np.zeros(n, dtype=bool)
    has_total = np.zeros(n, dtype=bool)
    checked = np.zeros(n, dtype=bool)
    cone_checks = 0
    cone_hits = 0
    q = pts.copy()
    far = _eigenframe_distance(q, inv_frame) >= singular_radius
    for _ in range(n_forward):
        seed = np.flatnonzero(far & ~has_v)
        if len(seed):
            q_seed = q[seed]
            w0 = _project_tangent(_unstable_frame(q_seed)[0], q_seed)
            n0 = np.linalg.norm(w0, axis=-1)
            good = n0 > 1e-10
            seed = seed[good]
            v[seed] = w0[good] / n0[good, None]
            has_v[seed] = True
            first = seed[~has_total[seed]]
            v_total[first] = v[first]
            has_total[first] = True
        has_v &= far
        v[~has_v] = 0.0
        jac = trace_jacobian(q)
        v = np.einsum("nij,nj->ni", jac, v)
        v_total = np.einsum("nij,nj->ni", jac, v_total)
        q = trace_step(q)
        far = _eigenframe_distance(q, inv_frame) >= singular_radius
        check = np.flatnonzero(has_v & far)
        if len(check):
            q_check = q[check]
            w = _project_tangent(v[check], q_check)
            coef_u, coef_s = _frame_coefficients(*_unstable_frame(q_check), w)
            cone_checks += len(check)
            hit = np.abs(coef_u) > np.abs(coef_s) / zeta
            cone_hits += int(np.count_nonzero(hit))
            checked[check] = True
    g = np.linalg.norm(v_total, axis=-1)
    used = has_total & checked & np.isfinite(g) & (g != 0.0)
    ratios = g[used] / target
    return EmpiricalReport(
        coupling=coupling,
        n_steps=n_forward,
        samples_total=n,
        samples_used=len(ratios),
        inconclusive=n - len(ratios),
        min_expansion_ratio=float(ratios.min()) if len(ratios) else np.nan,
        cone_checks=cone_checks,
        cone_hits=cone_hits,
        singular_radius=singular_radius,
        per_sample_ratios=ratios,
    )
