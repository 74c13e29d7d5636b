"""Empirical expansion certificate for the trace map at small coupling.

Samples surface points whose orbits stay bounded in both time directions
(a computable stand-in for the non-wandering set), equips them with
unstable directions pulled over from the V=0 cone family through the
torus semiconjugacy, and pushes those vectors through the differential
of the trace map along orbit segments.  Reported are the worst expansion
ratio against mu^(n(1-4 eps)) and the fraction of steps, away from the
singular points, where the vector stayed inside the unstable cone.

The certificate works on the whole orbit window at once: one
``trace_orbit`` call gives every sample's n + 1 orbit points, and the
masks, Jacobians, torus frames and seed vectors are computed on all of
them together.  Only the transport of the carried vectors, which resets
inside the singular neighborhoods, runs step by step; the cone test
then runs once, on every (step, sample) pair it checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import torus
from .certify import singular_eigen
from .tracemap import singular_points, surface_points, trace_orbit
# trace_step is not called here, but perfbench/spans.py looks it up here
from .tracemap import trace_step  # noqa: F401

__all__ = [
    "EmpiricalReport",
    "empirical_trace_certificate",
    "sample_bounded_points",
    "trace_jacobian",
]


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


def _bounded_rows(x, y, z, n_steps: int, norm_cap, backward: bool) -> np.ndarray:
    """Mask of the rows whose next ``n_steps`` points, forward or backward,
    have norm <= norm_cap (a number, or one cap per row), each norm
    summed x^2 + y^2 + z^2 in that order, as ``np.linalg.norm`` sums it.
    """
    s = trace_orbit(x, y, z, n_steps) if backward else trace_orbit(z, y, x, n_steps)
    with np.errstate(over="ignore"):
        sq = s * s
    # T^(+-k)(p) is (s_k, s_{k+1}, s_{k+2}), reversed going forward
    x_sq, z_sq = (sq[1:-2], sq[3:]) if backward else (sq[3:], sq[1:-2])
    return np.all(np.sqrt(x_sq + sq[2:-1] + z_sq) <= norm_cap, axis=0)


def _surface_candidates(coupling: float, grid: int, rng) -> tuple[np.ndarray, ...]:
    """x, y, z columns of the points of both z-sheets of S_V over a
    jittered (x, y) grid of grid x grid points in (-1, 1)^2: first the
    upper sheet, then the lower one."""
    u = np.linspace(-0.999, 0.999, grid)
    xx, yy = np.meshgrid(u, u, indexing="ij")
    xx = xx + rng.uniform(-0.5, 0.5, xx.shape) * (u[1] - u[0])
    yy = yy + rng.uniform(-0.5, 0.5, yy.shape) * (u[1] - u[0])
    return surface_points(coupling, xx, yy)


def _off_vertices(x, y, z) -> np.ndarray:
    """Mask of the rows farther than 1e-6 from every singular vertex."""
    keep = np.ones(len(x), dtype=bool)
    for s in singular_points():
        dx, dy, dz = x - s[0], y - s[1], z - s[2]
        keep &= np.sqrt(dx * dx + dy * dy + dz * dz) > 1e-6
    return keep


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
    (x, y) grid in the square holding the bounded component.  They are
    screened in a seeded random order (``rng.permutation``), and the
    first ``n_samples`` that pass, in that order, are returned: a
    uniform random n_samples-subset of all the candidates that pass, or
    all of them when fewer pass.  The order is screened in chunks that
    start at 2 n_samples rows and double, and the screen stops once
    n_samples rows have passed; since each row passes or fails on its
    own, the chunks do not change the result.  The singular vertices
    themselves are excluded; everything else near them is handled
    downstream by the singular-neighborhood radius.

    Each candidate is screened forward, and each that passes backward,
    by one ``tracemap.trace_orbit`` call per direction on the whole
    chunk.  Its norms are summed as ``np.linalg.norm`` sums them, so the
    points kept are those kept by stepping ``trace_step`` and
    ``trace_step_inv`` row by row.  A row that escapes runs on to inf
    or NaN and fails every later step.  An infinite norm_cap would keep
    rows that reached infinity, so norm_cap must be finite.
    """
    if not norm_cap < np.inf:
        raise ValueError("norm_cap must be finite")
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    rng = np.random.default_rng(rng)
    # built in a helper so that its grid-sized temporaries are freed
    # before the screen allocates its buffers (peak memory)
    x, y, z = _surface_candidates(coupling, grid, rng)
    order = rng.permutation(len(x))
    kept, found = [np.empty((0, 3))], 0
    start, size = 0, 2 * n_samples
    while found < n_samples and start < len(order):
        rows = order[start:start + size]
        pts = np.stack([x[rows], y[rows], z[rows]], axis=-1)
        pts = pts[_off_vertices(*pts.T)]
        pts = pts[_bounded_rows(*pts.T, n_forward, norm_cap, False)]
        pts = pts[_bounded_rows(*pts.T, n_forward, norm_cap, True)]
        kept.append(pts)
        found += len(pts)
        start += size
        size *= 2
    return np.concatenate(kept)[:n_samples]


def _unstable_frame(p) -> tuple[np.ndarray, np.ndarray]:
    """Pushed-forward unstable/stable directions at the V=0 shadows of p.

    Accepts a (..., 3) array of points; both directions come back with
    the same shape.
    """
    t = torus.invert_semiconj(p)
    jac = torus.df_semiconj(t)
    return jac @ torus.V_U, jac @ torus.V_S


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

    Accepts an (n, 3) array of points and returns an (n,) array.  The
    offsets to the four points go through one flat matmul, and each
    norm is summed a^2 + b^2 + c^2 in that order, as ``np.linalg.norm``
    sums it.
    """
    deltas = (p[:, None, :] - singular_points()).reshape(-1, 3) @ inv_frame.T
    deltas *= deltas
    r = np.sqrt(deltas[:, 0] + deltas[:, 1] + deltas[:, 2]).reshape(-1, 4)
    return np.minimum(np.minimum(r[:, 0], r[:, 1]), np.minimum(r[:, 2], r[:, 3]))


def empirical_trace_certificate(
    coupling: float,
    sample_size: int = 1000,
    n_forward: int = 30,
    epsilon: float = 0.1,
    zeta: float = 0.1,
    singular_radius: float = 0.05,
    rng=None,
) -> EmpiricalReport:
    """Cone invariance and expansion statistics along bounded orbits.

    For each sampled point the unstable direction of the V=0 factor is
    projected onto the tangent plane of S_V and transported through the
    trace-map differential for ``n_forward`` steps.  Cone membership is
    tested at every step whose orbit point lies outside the declared
    singular neighborhoods (measured in the eigenframe of the singular
    differential); the expansion ratio compares the final stretch with
    mu^(n(1-4 eps)).  The whole orbit window is computed up front and
    only the vector transport runs step by step (see ``_certify_points``).
    The points are drawn by ``sample_bounded_points`` at its default
    norm cap and grid.
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
    pts = sample_bounded_points(coupling, sample_size, n_forward, rng=rng)
    return _certify_points(pts, n_forward, epsilon, zeta, singular_radius)


def _certify_points(
    pts: np.ndarray,
    n_forward: int,
    epsilon: float,
    zeta: float,
    singular_radius: float,
) -> EmpiricalReport:
    """The statistics of ``empirical_trace_certificate`` at given (n, 3)
    bounded points.

    Everything that depends only on the orbit is computed once, on the
    whole window of (n_forward + 1) x n orbit points from one
    ``trace_orbit`` call: the far-from-singular masks, the Jacobians,
    and, on the far points, the torus frames and the unit seed vectors.
    The step loop then only seeds, resets and transports the carried
    vectors and records which (step, row) pairs are checked; the cone
    test runs once, on every recorded pair.
    """
    frame = singular_eigen().eigenvectors
    inv_frame = np.linalg.inv(frame)
    target = torus.MU ** (n_forward * (1.0 - 4.0 * epsilon))
    n = len(pts)
    # orbit[k] is T^k(pts); a point that is stepped must be finite, as
    # trace_step requires
    seq = trace_orbit(pts[:, 2], pts[:, 1], pts[:, 0], n_forward)
    orbit = np.stack([seq[2:], seq[1:-1], seq[:-2]], axis=-1)
    if not np.all(np.isfinite(orbit[:-1])):
        raise ValueError("point has non-finite coordinates")
    flat = orbit.reshape(-1, 3)
    far = _eigenframe_distance(flat, inv_frame) >= singular_radius
    # frames are needed only where a vector is seeded or checked, and
    # both happen only on far points
    at = np.flatnonzero(far)
    q_far = flat[at]
    u_far, s_far = _unstable_frame(q_far)
    e_u = np.zeros_like(flat)
    e_s = np.zeros_like(flat)
    e_u[at], e_s[at] = u_far, s_far
    w0 = _project_tangent(u_far, q_far)
    n0 = np.linalg.norm(w0, axis=-1)
    good = n0 > 1e-10
    seedable = np.zeros(len(flat), dtype=bool)
    seedable[at[good]] = True
    unit = np.zeros_like(flat)
    unit[at[good]] = w0[good] / n0[good, None]
    del q_far, u_far, s_far, w0, n0, good
    shape = (n_forward + 1, n)
    far, seedable = far.reshape(shape), seedable.reshape(shape)
    unit = unit.reshape(shape + (3,))
    jac = trace_jacobian(orbit[:-1])
    # the carried vector v is dropped inside every singular neighborhood
    # and re-seeded on exit, mirroring how the orbit is split into
    # segments between near-singular passages; v_total is transported
    # over the whole window from the first seeding, for the ratio
    v = np.zeros((n, 3))
    v_total = np.zeros((n, 3))
    has_v = np.zeros(n, dtype=bool)
    has_total = np.zeros(n, dtype=bool)
    carried = np.zeros((n_forward, n, 3))  # v after each step
    held = np.zeros((n_forward, n), dtype=bool)  # has_v after each step
    for k in range(n_forward):
        seed = seedable[k] & ~has_v
        v[seed] = unit[k, seed]
        first = seed & ~has_total
        v_total[first] = unit[k, first]
        has_total |= first
        has_v = (has_v | seed) & far[k]
        v[~has_v] = 0.0
        v = np.einsum("nij,nj->ni", jac[k], v)
        v_total = np.einsum("nij,nj->ni", jac[k], v_total)
        carried[k] = v
        held[k] = has_v
    # the vector carried through step k is checked at orbit[k + 1]
    check = held & far[1:]
    checked = check.any(axis=0)
    pairs = check.reshape(-1)
    later = slice(n, None)  # the flat rows of orbit[1:]
    w = _project_tangent(carried.reshape(-1, 3)[pairs], flat[later][pairs])
    coef_u, coef_s = _frame_coefficients(
        e_u[later][pairs], e_s[later][pairs], w
    )
    cone_checks = len(w)
    cone_hits = int(np.count_nonzero(np.abs(coef_u) > np.abs(coef_s) / zeta))
    g = np.linalg.norm(v_total, axis=-1)
    used = has_total & checked & np.isfinite(g) & (g != 0.0)
    ratios = g[used] / target
    return EmpiricalReport(
        samples_total=n,
        samples_used=len(ratios),
        inconclusive=n - len(ratios),
        min_expansion_ratio=float(ratios.min()) if len(ratios) else np.nan,
        cone_checks=cone_checks,
        cone_hits=cone_hits,
        singular_radius=singular_radius,
        per_sample_ratios=ratios,
    )
